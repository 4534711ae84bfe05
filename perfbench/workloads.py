"""Seeded workloads: job lists, the jobs themselves, and each job's check.

A workload is a closed loop of jobs from one process.  A job is one sweep
point or one analysis task; the next starts when the previous one has
finished.  Jobs come in blocks of at least 100 with a fixed mix of job types.
Each block's parameters are drawn from ``(seed, block)`` by stratified
sampling: every continuous parameter takes one value in each of n equal
strata of its range, in shuffled order.  Blocks from different seeds
therefore differ in every value but hardly in total work, which keeps
seed-to-seed spread low.  The largest input of a block (the 4.1 nm master
spectrum, the 0.2 /ns HBT stream pair) is pinned so that peak memory does not
depend on the seed.

A runner returns ``(ok, detail)``; ``ok`` is the job's correctness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from cavqed import csvio, dynamics, fitkit, hbt, instrument, specdiff, trajectories
from cavqed.cli import main as cli_main
from cavqed.instrument import InstrumentConfig
from cavqed.polariton import (
    Spectrum,
    SystemParams,
    eigenmodes,
    purcell_lifetime,
    rabi_splitting,
)
from cavqed.specdiff import TelegraphConfig
from cavqed.trajectories import PulseConfig
from cavqed.units import SPEED_OF_LIGHT_NM_GHZ, Detuning, frequency_to_detuning

LAMBDA_REF_NM = 942.5
RESONANCE = Detuning.zero(LAMBDA_REF_NM)


@dataclass
class Job:
    kind: str
    params: dict
    data: dict = field(default_factory=dict)   # pre-generated input arrays
    cost: float = 0.0     # grows with the job's expected run time within its kind


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    return rng.permutation(lo + (hi - lo) * u)


def _int_strata(rng, n: int, lo: int, hi: int) -> np.ndarray:
    return np.floor(_strata(rng, n, lo, hi + 1)).astype(int)


def _seeds(rng, n: int) -> np.ndarray:
    return rng.integers(1, 2**31 - 1, size=n)


# ---------------------------------------------------------------------------
# me_sweep: master-equation sweep points
# ---------------------------------------------------------------------------

ME_BASE = SystemParams()            # g 18.4, gamma_x 8.5, gamma_m 24.1, pump 0.01 GHz
ME_GRID_POINTS = 801
ME_PEAK_TOL_GHZ = 3.0
G2_AUTO_TAU = np.arange(401) * 0.25          # 0..100 ns, the CLI's regression grid
G2_CROSS_TAU = np.linspace(0.0, 12.0, 49)    # the README library example


def me_sweep_block(rng, toy: bool) -> list[Job]:
    if toy:
        dl = float(_strata(rng, 1, -0.35, 0.35)[0])
        return [Job("me_point", {"dl_nm": dl, "n_max": 1})]
    near = _strata(rng, 85, -0.35, 0.35)
    far = _strata(rng, 15, 1.0, 4.1) * rng.choice([-1.0, 1.0], 15)
    far[np.argmax(np.abs(far))] = 4.1
    jobs = []
    for dls in (near, far):
        # n_max cycles through 1, 3, 5 in order of |detuning|, so each
        # stratum keeps its Fock cutoff whatever the seed.
        n_max = np.empty(dls.size, dtype=int)
        n_max[np.argsort(np.abs(dls))] = np.resize([1, 3, 5], dls.size)
        jobs += [Job("me_point", {"dl_nm": float(d), "n_max": int(n)}, cost=abs(d))
                 for d, n in zip(dls, n_max)]
    return jobs


def me_point(job: Job, rec, workdir) -> tuple[bool, str]:
    det = Detuning.from_nm(job.params["dl_nm"], LAMBDA_REF_NM)
    p = replace(ME_BASE, n_max=job.params["n_max"]).with_detuning(det)
    model = rec.call(dynamics.build_model, p, det)
    rec.call(dynamics.steady_state, p, det, model=model)
    modes = rec.call(eigenmodes, p, det)
    pad = 6.0 * max(p.gamma_m_GHz, p.gamma_x_GHz)
    grid = np.linspace(modes.omega_minus_GHz - pad, modes.omega_plus_GHz + pad,
                       ME_GRID_POINTS)
    spec = rec.call(dynamics.emission_spectrum, p, det, grid, model=model)
    auto = rec.call(dynamics.g2_auto, p, det, G2_AUTO_TAU, model=model)
    cross = rec.call(dynamics.g2_cross, p, det, G2_CROSS_TAU, model=model)
    peaks = rec.call(fitkit.peak_locations, spec.axis, spec.intensity, 2)
    want = np.array([modes.omega_minus_GHz, modes.omega_plus_GHz])
    peak_err = float(np.max(np.abs(peaks - want)))
    tail = abs(float(auto.values[-1]) - 1.0)
    ok = (peak_err < ME_PEAK_TOL_GHZ and tail < 0.01
          and bool(np.all(np.isfinite(cross.values))))
    return ok, f"peak error {peak_err:.3f} GHz, |g2(100 ns) - 1| {tail:.2e}"


# ---------------------------------------------------------------------------
# mc_clicks: quantum-trajectory click streams
# ---------------------------------------------------------------------------

LIFETIME_BASE = SystemParams(g_GHz=20.7, pump_GHz=0.0, n_max=3)       # test_03 physics
CW_NEAR_BASE = SystemParams(g_GHz=18.4, pump_GHz=0.05, n_max=2)       # test_05 set B
CW_FAR_BASE = SystemParams(g_GHz=20.7, gamma_b_GHz=0.015, pump_GHz=0.01,
                           transfer_GHz=0.05, n_max=1)                # test_05 set C
SINGLE_PHOTON_BASE = SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_b_GHz=0.2,
                                  pump_GHz=0.0, n_max=1)              # test_06ii
SINGLE_PHOTON_RATIO_MAX = 0.02
RATE_Z_MAX = 5.0
LIFETIME_REL_TOL = 0.35


def mc_clicks_block(rng, toy: bool) -> list[Job]:
    # Far-detuned CW points are a fifth of the block; the other three types
    # share the rest equally, since no recorded sweep weights one above another.
    n_pl, n_cw, n_sp, n_far = (1, 1, 1, 1) if toy else (27, 27, 26, 20)
    jobs = []
    for dl, delay, seed in zip(_strata(rng, n_pl, -0.06, 0.06),
                               _strata(rng, n_pl, 0.05, 0.08), _seeds(rng, n_pl)):
        jobs.append(Job("pulsed_lifetime", {
            "dl_nm": float(dl), "capture_delay_ns": float(delay),
            "n_pulses": 300 if toy else 1000, "seed": int(seed)}, cost=abs(dl)))
    for dl, seed in zip(_strata(rng, n_cw, -0.35, 0.35), _seeds(rng, n_cw)):
        jobs.append(Job("cw_hbt", {"dl_nm": float(dl), "seed": int(seed),
                                   "duration_ns": 500.0 if toy else 1500.0,
                                   "discard_ns": 20.0}, cost=abs(dl)))
    for gamma, mu, n_pulses, seed in zip(_strata(rng, n_sp, 0.15, 0.25),
                                         _strata(rng, n_sp, 0.2, 0.4),
                                         _int_strata(rng, n_sp, 2500, 3500),
                                         _seeds(rng, n_sp)):
        jobs.append(Job("single_photon", {
            "gamma_GHz": float(gamma), "mu": float(mu),
            "n_pulses": 1500 if toy else int(n_pulses), "seed": int(seed)},
            cost=mu * n_pulses))
    for dl, seed in zip(_strata(rng, n_far, 1.0, 4.1), _seeds(rng, n_far)):
        jobs.append(Job("far_cw", {"dl_nm": float(dl), "seed": int(seed),
                                   "duration_ns": 200.0 if toy else 400.0,
                                   "discard_ns": 40.0}, cost=dl))
    return jobs


def _rates_check(rec, p, det, clicks, discard_ns) -> tuple[bool, str]:
    """Photon counts after the transient against the steady-state fluxes."""
    model = rec.call(dynamics.build_model, p, det)
    rho = rec.call(dynamics.steady_state, p, det, model=model)
    span = clicks.duration_ns - discard_ns
    worst = 0.0
    for channel in model.channels:
        if channel.label not in ("cavity_loss", "exciton_radiative") or channel.rate_GHz == 0:
            continue
        jump = channel.jump_operator
        want = float(np.trace(jump.conj().T @ jump @ rho).real) * span
        got = int(np.sum(clicks.times(channel.label) >= discard_ns))
        worst = max(worst, abs(got - want) / math.sqrt(max(want, 1.0)))
    return worst < RATE_Z_MAX, f"rate z {worst:.2f}"


def pulsed_lifetime(job: Job, rec, workdir) -> tuple[bool, str]:
    prm = job.params
    det = Detuning.from_nm(prm["dl_nm"], LAMBDA_REF_NM)
    p = LIFETIME_BASE.with_detuning(det)
    cfg = PulseConfig(rep_rate_MHz=80.0, mean_captures_per_pulse=1.0,
                      capture_delay_ns=prm["capture_delay_ns"],
                      n_pulses=prm["n_pulses"])
    clicks = rec.call(trajectories.run_pulsed, p, det, cfg, seed=prm["seed"])
    h = rec.call(trajectories.lifetime_from_clicks,
                 clicks, "cavity_loss", cfg.rep_period_ns, bin_ns=0.01)
    sel = (h.centers_ns > 0.05) & (h.centers_ns < 1.0)
    fit = rec.call(fitkit.fit_decay, (h.centers_ns[sel], h.counts[sel]), "mono")
    # Near resonance the polariton decays in under 10 ps, so the capture
    # delay sets the observed decay.  Over 200 seeds the fit read 6.2% long
    # with a 4.8% standard deviation; the tolerance is six of those above it.
    rel = fit.params["tau_ns"] / prm["capture_delay_ns"] - 1.0
    return abs(rel) < LIFETIME_REL_TOL, f"lifetime off by {100 * rel:.1f}%"


def cw_hbt(job: Job, rec, workdir) -> tuple[bool, str]:
    prm = job.params
    det = Detuning.from_nm(prm["dl_nm"], LAMBDA_REF_NM)
    p = CW_NEAR_BASE.with_detuning(det)
    clicks = rec.call(trajectories.run_cw, p, det,
                      duration_ns=prm["duration_ns"], seed=prm["seed"])
    ok, detail = _rates_check(rec, p, det, clicks, prm["discard_ns"])
    mode = clicks.times("cavity_loss")
    a, b = rec.call(hbt.split_beam, mode[mode >= prm["discard_ns"]], seed=prm["seed"] + 1)
    h = rec.call(hbt.start_stop_histogram, a, b, bin_ns=0.25, window_ns=100.0)
    g2 = rec.call(hbt.normalize_g2, h, duration_ns=prm["duration_ns"] - prm["discard_ns"])
    return ok and bool(np.all(np.isfinite(g2.values))), detail


def far_cw(job: Job, rec, workdir) -> tuple[bool, str]:
    prm = job.params
    det = Detuning.from_nm(prm["dl_nm"], LAMBDA_REF_NM)
    p = CW_FAR_BASE.with_detuning(det)
    clicks = rec.call(trajectories.run_cw, p, det,
                      duration_ns=prm["duration_ns"], seed=prm["seed"])
    return _rates_check(rec, p, det, clicks, prm["discard_ns"])


def single_photon(job: Job, rec, workdir) -> tuple[bool, str]:
    prm = job.params
    det = Detuning.from_nm(4.1, LAMBDA_REF_NM)
    p = replace(SINGLE_PHOTON_BASE, gamma_x_GHz=prm["gamma_GHz"],
                gamma_b_GHz=prm["gamma_GHz"]).with_detuning(det)
    cfg = PulseConfig(rep_rate_MHz=40.0, mean_captures_per_pulse=prm["mu"],
                      capture_delay_ns=0.06, n_pulses=prm["n_pulses"],
                      allow_recapture=False)
    clicks = rec.call(trajectories.run_pulsed, p, det, cfg, seed=prm["seed"])
    a, b = rec.call(hbt.split_beam,
                    clicks.times("exciton_radiative"), seed=prm["seed"] + 1)
    h = rec.call(hbt.start_stop_histogram, a, b, bin_ns=0.25, window_ns=100.0)
    rep = rec.call(hbt.pulsed_peak_areas, h, cfg.rep_period_ns, cfg.rep_period_ns / 4.0)
    return rep.ratio < SINGLE_PHOTON_RATIO_MAX, f"central/side ratio {rep.ratio:.4f}"


# ---------------------------------------------------------------------------
# analysis: measurement chain, fits, CSV and CLI, no propagation
# ---------------------------------------------------------------------------

HBT_RATES_PER_NS = (1e-3, 0.2)
HBT_WINDOW_NS, HBT_BIN_NS = 100.0, 0.25
HBT_SUBWINDOW_BINS = 50          # 16 sub-windows of 12.5 ns
HBT_Z_MAX = 5.0
ANTI_BASE = SystemParams(gamma_b_GHz=0.0, pump_GHz=0.0)
LIFETIME_SWEEP_BASE = SystemParams(pump_GHz=0.0)
TRIPLET_BASE = SystemParams(transfer_GHz=0.05, n_max=3)               # test_07 physics
IRF_PERIOD_NS = 12.5
IRF_FWHM_NS = 0.070


def _poisson_times(rng, rate: float, n: int, duration: float) -> np.ndarray:
    times = np.cumsum(rng.exponential(1.0 / rate, size=n + 6 * int(math.sqrt(n)) + 10))
    return times[times < duration]


def analysis_block(rng, toy: bool) -> list[Job]:
    # Equal counts: no recorded analysis session weights one task above another.
    counts = (1, 1, 1, 1, 1) if toy else (20, 20, 20, 20, 20)
    n_hbt, n_anti, n_tau, n_trip, n_irf = counts
    n_clicks = 20_000 if toy else 1_000_000
    jobs = []
    lo, hi = (math.log(r) for r in HBT_RATES_PER_NS)
    rates = np.exp(_strata(rng, n_hbt, lo, hi))
    rates[np.argmax(rates)] = HBT_RATES_PER_NS[1]
    for rate in rates:
        duration = n_clicks / rate
        jobs.append(Job("hbt_poisson", {"rate_per_ns": float(rate)},
                        {"starts": _poisson_times(rng, rate, n_clicks, duration),
                         "stops": _poisson_times(rng, rate, n_clicks, duration),
                         "duration_ns": duration}, cost=rate))
    for n_points, g in zip(_int_strata(rng, n_anti, 15, 101),
                           _strata(rng, n_anti, 15.0, 22.0)):
        jobs.append(Job("anticross", {"n_points": int(n_points), "g_GHz": float(g)},
                        {"noise": rng.standard_normal(2 * n_points)}, cost=n_points))
    for n_points, g, gb in zip(_int_strata(rng, n_tau, 8, 40),
                               _strata(rng, n_tau, 15.0, 25.0),
                               _strata(rng, n_tau, 0.01, 0.02)):
        jobs.append(Job("lifetime_sweep",
                        {"n_points": int(n_points), "g_GHz": float(g),
                         "gamma_b_GHz": float(gb)},
                        {"noise": rng.standard_normal(n_points)}, cost=n_points))
    for f, offset in zip(_strata(rng, n_trip, 0.5, 0.6),
                         _strata(rng, n_trip, -2000.0, -1500.0)):
        jobs.append(Job("triplet", {"resonant_fraction": float(f),
                                    "offset_GHz": float(offset)}))
    for tau, n, eff, seed in zip(_strata(rng, n_irf, 0.04, 0.2),
                                 _int_strata(rng, n_irf, 20_000, 60_000),
                                 _strata(rng, n_irf, 0.7, 1.0), _seeds(rng, n_irf)):
        n = 5_000 if toy else int(n)
        clean = IRF_PERIOD_NS * np.arange(n) + 0.5 + rng.exponential(tau, n)
        jobs.append(Job("irf_decay", {"tau_ns": float(tau), "efficiency": float(eff),
                                      "seed": int(seed)},
                        {"times": np.sort(clean)}, cost=n))
    return jobs


def _subwindow_z(observed: np.ndarray, expected: np.ndarray, dispersion) -> float:
    """Largest deviation, in standard deviations, over sub-window sums of a histogram.

    ``dispersion`` is the variance-to-mean ratio of one sub-window's count.
    """
    obs = observed.reshape(-1, HBT_SUBWINDOW_BINS).sum(axis=1)
    exp = expected.reshape(-1, HBT_SUBWINDOW_BINS).sum(axis=1)
    disp = np.broadcast_to(dispersion, exp.shape)
    return float(np.max(np.abs(obs - exp) / np.sqrt(np.maximum(exp, 1.0) * disp)))


def _first_stop_expectation(edges, n_a, n_b, duration):
    """Expected start-stop histogram of two independent Poisson streams.

    Also returns a variance-to-mean ratio that bounds the count variance:
    the starts between two stops share one first stop, and their number is
    geometric with mean m = rate ratio, so a sub-window count has variance at
    most (1 + 2m) times its mean.
    """
    r_a, r_b = n_a / duration, n_b / duration
    lo, hi = edges[:-1], edges[1:]
    pos = n_a * (np.exp(-r_b * np.maximum(lo, 0.0)) - np.exp(-r_b * np.maximum(hi, 0.0)))
    neg = n_b * (np.exp(-r_a * np.maximum(-hi, 0.0)) - np.exp(-r_a * np.maximum(-lo, 0.0)))
    positive = (lo >= 0.0).reshape(-1, HBT_SUBWINDOW_BINS)[:, 0]
    dispersion = np.where(positive, 1.0 + 2.0 * r_a / r_b, 1.0 + 2.0 * r_b / r_a)
    return np.where(lo >= 0.0, pos, neg), dispersion


def hbt_poisson(job: Job, rec, workdir) -> tuple[bool, str]:
    a, b, duration = job.data["starts"], job.data["stops"], job.data["duration_ns"]
    pairs = rec.call(hbt.start_stop_histogram, a, b,
                     bin_ns=HBT_BIN_NS, window_ns=HBT_WINDOW_NS, estimator="all-pairs")
    g2 = rec.call(hbt.normalize_g2, pairs, duration_ns=duration)
    first = rec.call(hbt.start_stop_histogram, a, b,
                     bin_ns=HBT_BIN_NS, window_ns=HBT_WINDOW_NS, estimator="start-stop")
    flat = np.full(pairs.counts.size, a.size * (b.size / duration) * HBT_BIN_NS)
    # Given the stream totals, which set the expectation, click times are
    # independent and uniform, so pair indicators are uncorrelated and a
    # sub-window count is binomial: variance equal to its mean.
    z_pairs = _subwindow_z(pairs.counts, flat, 1.0)
    z_first = _subwindow_z(first.counts, *_first_stop_expectation(
        first.bin_edges_ns, a.size, b.size, duration))
    path = workdir / "hbt_histogram.csv"
    columns = {"tau_ns": pairs.centers_ns, "counts_all_pairs": pairs.counts,
               "counts_start_stop": first.counts, "g2": g2.values}
    rec.call(csvio.write_csv, path, columns,
             {"tool": "perfbench", "rate_per_ns": job.params["rate_per_ns"]})
    _meta, back = rec.call(csvio.read_csv, path)
    same = (np.array_equal(back["counts_all_pairs"], pairs.counts)
            and np.array_equal(back["counts_start_stop"], first.counts))
    ok = z_pairs < HBT_Z_MAX and z_first < HBT_Z_MAX and same
    return ok, f"all-pairs z {z_pairs:.2f}, start-stop z {z_first:.2f}, csv {same}"


def _cli_fit(rec, args: list[str], out) -> dict | None:
    """Run a README ``cavqed fit`` recipe; its fitted parameters, or None."""
    if rec.call(cli_main, ["fit", *args, "--out", str(out)]) != 0:
        return None
    _meta, cols = rec.call(csvio.read_csv, out)
    return dict(zip(cols["param"], cols["value"]))


def anticross(job: Job, rec, workdir) -> tuple[bool, str]:
    g = job.params["g_GHz"]
    p = replace(ANTI_BASE, g_GHz=g)
    dls = np.linspace(-0.35, 0.35, job.params["n_points"])
    blue, red = [], []
    for dl in dls:
        modes = rec.call(eigenmodes,
                         replace(p, lambda_m_nm=p.lambda_x_nm - dl),
                         Detuning.from_nm(dl, p.lambda_x_nm))
        blue.append(SPEED_OF_LIGHT_NM_GHZ / modes.omega_plus_GHz)
        red.append(SPEED_OF_LIGHT_NM_GHZ / modes.omega_minus_GHz)
    _split_GHz, split_nm = rec.call(rabi_splitting, p)
    # Positional noise of 0.5% of the splitting keeps the 2% bound on g at
    # seven standard deviations of the fit for 15 points (0.28% measured).
    lam = np.concatenate([blue, red]) + 0.005 * split_nm * job.data["noise"]
    fit = rec.call(fitkit.fit_anticrossing,
                   np.concatenate([dls, dls]), lam,
                   init={"gamma_x_GHz": p.gamma_x_GHz, "gamma_m_GHz": p.gamma_m_GHz})
    data, out = workdir / "anti.csv", workdir / "anti_fit.csv"
    rec.call(csvio.write_csv, data,
             {"dl_nm": dls, "lambda_blue_nm": lam[:dls.size],
              "lambda_red_nm": lam[dls.size:]},
             {"tool": "perfbench", "command": "anticross"})
    cli_fit = _cli_fit(rec, ["--model", "anticross", "--data", str(data)], out)
    if cli_fit is None:
        return False, "cavqed fit --model anticross failed"
    err = max(abs(fit.params["g_GHz"] / g - 1.0), abs(cli_fit["g_GHz"] / g - 1.0))
    return err < 0.02, f"g error {100 * err:.2f}%"


def lifetime_sweep(job: Job, rec, workdir) -> tuple[bool, str]:
    prm = job.params
    p = replace(LIFETIME_SWEEP_BASE, g_GHz=prm["g_GHz"], gamma_b_GHz=prm["gamma_b_GHz"])
    dls = np.linspace(0.3, 4.1, prm["n_points"])
    taus = np.array([rec.call(purcell_lifetime, p,
                              Detuning.from_nm(dl, LAMBDA_REF_NM)).tau_ns
                     for dl in dls])
    taus *= 1.0 + 0.02 * job.data["noise"]
    fit = rec.call(fitkit.fit_lifetime_curve, dls, taus, p.gamma_m_GHz, LAMBDA_REF_NM)
    data, out = workdir / "tau.csv", workdir / "tau_fit.csv"
    rec.call(csvio.write_csv, data, {"dl_nm": dls, "tau_ns": taus},
             {"tool": "perfbench", "command": "lifetime"})
    cli_fit = _cli_fit(rec, ["--model", "lifetime", "--data", str(data),
                             "--set", f"system.g_GHz={prm['g_GHz']}"], out)
    if cli_fit is None:
        return False, "cavqed fit --model lifetime failed"
    # Errors as fractions of the fit-recovery bounds: 5% on g, 15% on gamma_b.
    worst = max(max(abs(f["g_GHz"] / prm["g_GHz"] - 1.0) / 0.05,
                    abs(f["gamma_b_GHz"] / prm["gamma_b_GHz"] - 1.0) / 0.15)
                for f in (fit.params, cli_fit))
    return worst < 1.0, f"worst error {worst:.2f} of tolerance"


def triplet(job: Job, rec, workdir) -> tuple[bool, str]:
    f = job.params["resonant_fraction"]
    p = TRIPLET_BASE
    cfg = TelegraphConfig(resonant_fraction=f, detuned_offset_GHz=job.params["offset_GHz"])
    wm = p.omega_m_GHz
    grid = np.arange(wm - 160.0, wm + 160.0, 0.35)
    mix = rec.call(specdiff.averaged_spectrum, p, RESONANCE, cfg, grid, mode="fast")
    sw = rec.call(mix.to_wavelength)
    lam = np.arange(sw.axis[0] + 0.001, sw.axis[-1] - 0.001, 0.0004)
    uniform = rec.call(Spectrum, lam,
                       np.interp(lam, sw.axis, sw.intensity), "wavelength_nm")
    conv = rec.call(instrument.convolve_spectrum, uniform, InstrumentConfig())
    modes = rec.call(eigenmodes, p, RESONANCE)
    split_nm = frequency_to_detuning(modes.splitting_GHz, LAMBDA_REF_NM)
    init = {"background": 0.0}
    for k, (center, fwhm) in enumerate([(LAMBDA_REF_NM - split_nm / 2, 0.048),
                                        (LAMBDA_REF_NM, 0.0714),
                                        (LAMBDA_REF_NM + split_nm / 2, 0.048)], start=1):
        i = int(np.argmin(np.abs(lam - center)))
        init.update({f"center_{k}": center, f"fwhm_{k}": fwhm,
                     f"area_{k}": float(conv.intensity[i] * math.pi * fwhm / 2)})
    fit = rec.call(fitkit.fit_lorentzians, conv, 3, init=init, gaussian_fwhm=0.021)
    path = workdir / "triplet.csv"
    rec.call(csvio.write_csv, path,
             {"wavelength_nm": conv.axis, "intensity": conv.intensity},
             {"tool": "perfbench", "command": "spectrum"})
    _meta, back = rec.call(csvio.read_csv, path)
    same = bool(np.allclose(back["intensity"], conv.intensity, rtol=1e-8, atol=1e-12))
    central = 1 + int(np.argsort([fit.params[f"center_{k}"] for k in (1, 2, 3)])[1])
    center_pm = 1e3 * abs(fit.params[f"center_{central}"] - LAMBDA_REF_NM)
    fwhm_rel = abs(fit.params[f"fwhm_{central}"] / 0.071 - 1.0)
    frac_err = abs(fit.derived[f"area_fraction_{central}"] - (1.0 - f))
    # The acceptance bounds of the triplet test: 1 pm, 5% of 71 pm, 0.02 of area.
    ok = center_pm < 1.0 and fwhm_rel < 0.05 and frac_err < 0.02 and same
    return ok, (f"center {center_pm:.2f} pm, fwhm {100 * fwhm_rel:.1f}%, "
                f"area {frac_err:.3f}, csv {same}")


def irf_decay(job: Job, rec, workdir) -> tuple[bool, str]:
    prm = job.params
    times = job.data["times"]
    stream = rec.call(trajectories.ClickStream,
                      times, np.zeros(times.size, np.int16), ("cavity_loss",),
                      float(times[-1] + 1.0))
    cfg = InstrumentConfig(apd_irf_ps=1e3 * IRF_FWHM_NS, efficiency=prm["efficiency"])
    seen = rec.call(instrument.jitter_and_thin, stream, cfg, seed=prm["seed"])
    h = rec.call(trajectories.lifetime_from_clicks,
                 seen, "cavity_loss", IRF_PERIOD_NS, bin_ns=0.01)
    fit = rec.call(fitkit.fit_decay, h, "mono", irf_fwhm_ns=IRF_FWHM_NS)
    path = workdir / "clicks.csv"
    rec.call(csvio.write_csv, path,
             {"channel": np.array(seen.labels)[seen.channel_codes],
              "time_ns": seen.times_ns},
             {"tool": "perfbench", "command": "g2", "stage": "clicks"})
    _meta, back = rec.call(csvio.read_csv, path)
    same = bool(np.allclose(back["time_ns"], seen.times_ns, rtol=1e-8, atol=1e-6))
    rel = fit.params["tau_ns"] / prm["tau_ns"] - 1.0
    # 15%: the deconvolved fast-decay bound of the fit-recovery acceptance test.
    return abs(rel) < 0.15 and same, f"lifetime off by {100 * rel:.1f}%, csv {same}"


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread_in_time(jobs: list[Job], rng) -> list[Job]:
    """Run order in which jobs of similar cost are spread evenly over the block.

    The i-th cheapest job of each kind takes the slot frac(i * golden ratio +
    offset), a low-discrepancy sequence, so the handful of jobs that set any
    latency percentile run at times spread over the whole block.  A slow
    drift of the machine's speed then moves every percentile the way it moves
    the block's wall time, instead of whichever seconds those jobs hit.
    """
    slots = []
    for kind in dict.fromkeys(job.kind for job in jobs):
        same = sorted((job for job in jobs if job.kind == kind), key=lambda job: job.cost)
        offset = rng.random()
        slots += [((i * _GOLDEN + offset) % 1.0, job) for i, job in enumerate(same)]
    return [job for _slot, job in sorted(slots, key=lambda slot: slot[0])]


@dataclass(frozen=True)
class Workload:
    block: object        # (rng, toy) -> list[Job]; toy gives one small job per type
    runners: dict        # job kind -> runner


WORKLOADS = {
    "me_sweep": Workload(me_sweep_block, {"me_point": me_point}),
    "mc_clicks": Workload(mc_clicks_block, {
        "pulsed_lifetime": pulsed_lifetime, "cw_hbt": cw_hbt,
        "single_photon": single_photon, "far_cw": far_cw}),
    "analysis": Workload(analysis_block, {
        "hbt_poisson": hbt_poisson, "anticross": anticross,
        "lifetime_sweep": lifetime_sweep, "triplet": triplet,
        "irf_decay": irf_decay}),
}
