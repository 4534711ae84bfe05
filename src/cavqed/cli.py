"""Command-line front end: experiment recipes and bit-stable CSV output.

Subcommands mirror the measurement pipelines: ``spectrum`` (single detuning,
analytic / master-equation / spectral-diffusion), ``anticross`` and
``lifetime`` (detuning sweeps), ``g2`` (regression or trajectory-sampled
correlations, CW or pulsed), and ``fit`` (the four analysis models applied
to emitted CSV files).

Configuration lives in one JSON file with sections mirroring the config
dataclasses; any value can be overridden from the command line with
``--set section.key=value``.  The exception type alone sets the exit code,
in ``main``: a ``NumericalError`` or ``LinAlgError`` is a numerical failure
(3), and any other ``ValueError`` or a path's ``OSError`` a refused input (2).
A command writes its files only after every step that can fail, so a
non-zero exit leaves no file.  A flag that the chosen mode would ignore is
refused: ``--fast`` outside diffused mode, ``--pulsed``, ``--instrument``,
``--duration-ns`` or ``--estimator`` with a regression ``g2``, and
``--duration-ns`` with ``--pulsed``.  Every stochastic command requires a
seed.  A trajectory ``g2`` histograms with ``--estimator`` (default
``all-pairs``), and a CW one simulates one emitter for ``--duration-ns``
(default 10^6 ns).  A trajectory ``lifetime`` point is the
maximum-likelihood lifetime of the clicks folded onto one repetition
period, read off their mean folded time; it exits 3
when that lifetime is not below the period.  ``spectrum`` resamples onto
the spectrometer's wavelength step only to convolve; with
``--no-instrument`` it writes the computed grid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, dynamics, fitkit, hbt, instrument, specdiff, trajectories
from .csvio import config_hash, read_csv, write_csv
from .instrument import InstrumentConfig
from .polariton import (
    Spectrum,
    SystemParams,
    eigenmodes,
    purcell_lifetime,
    spectral_function,
)
from .specdiff import TelegraphConfig
from .trajectories import PulseConfig
from .units import Detuning, wavelength_to_frequency

__all__ = ["main", "RunConfig"]

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3


# A config value must have its field default's type, except that a float
# field also takes an int and a field that defaults to None takes a number.
# Each section's dataclass refuses the values it cannot use, NaN and ±inf too.
_ALSO_TAKES = {float: (int, float), type(None): (type(None), int, float)}


def _section(data: dict, name: str, cls):
    """Config section ``name`` built from ``data``, each value type-checked."""
    values = data.get(name, {})
    if not isinstance(values, dict):
        raise ValueError(f"config section {name!r} must be an object")
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config key(s): "
                         f"{', '.join(f'{name}.{key}' for key in sorted(unknown))}")
    for f in fields(cls):
        value, kind = values.get(f.name), type(f.default)
        if f.name in values and type(value) not in _ALSO_TAKES.get(kind, (kind,)):
            raise ValueError(f"{name}.{f.name} must be {f.type}, got {value!r}")
    return cls(**values)


@dataclass
class RunConfig:
    """All sub-configurations plus the seed; ``--out``/``--out-prefix`` name the files.

    ``from_dict`` raises ``ValueError`` on an unknown key, a value of the
    wrong type, a value its section refuses, or a seed outside [0, 2**63).
    """

    system: SystemParams = field(default_factory=SystemParams)
    instrument: InstrumentConfig = field(default_factory=InstrumentConfig)
    pulses: PulseConfig = field(default_factory=PulseConfig)
    telegraph: TelegraphConfig = field(default_factory=TelegraphConfig)
    seed: int | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        seed = data.get("seed")
        if seed is not None and not (type(seed) is int and 0 <= seed < 2**63):
            raise ValueError(f"seed must be an integer in [0, 2**63), got {seed!r}")
        return cls(
            system=_section(data, "system", SystemParams),
            instrument=_section(data, "instrument", InstrumentConfig),
            pulses=_section(data, "pulses", PulseConfig),
            telegraph=_section(data, "telegraph", TelegraphConfig),
            seed=seed,
        )


def _apply_overrides(data: dict, assignments: list[str]) -> dict:
    for item in assignments:
        if "=" not in item:
            raise ValueError(f"--set needs section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set {dotted}: {key!r} is not a section")
        node[keys[-1]] = value
    return data


def load_config(args) -> RunConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
    data = _apply_overrides(data, args.set or [])
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return RunConfig.from_dict(data)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ValueError("this command is stochastic: set a seed "
                         "(--seed or \"seed\" in the config)")
    return cfg.seed


def _meta(cfg: RunConfig, command: str, **extra) -> dict:
    meta = {"cavqed": __version__, "config_hash": config_hash(asdict(cfg)),
            "seed": cfg.seed if cfg.seed is not None else "none",
            "command": command}
    meta.update(extra)
    return meta


def _wavelength_grid_spectrum(spec: Spectrum, step_nm: float) -> Spectrum:
    """Resample a spectrum onto a uniform wavelength grid for convolution."""
    sw = spec.to_wavelength()
    lam = np.arange(sw.axis[0], sw.axis[-1], step_nm)
    comps = {k: np.interp(lam, sw.axis, v) for k, v in sw.components.items()}
    return Spectrum(lam, np.interp(lam, sw.axis, sw.intensity),
                    "wavelength_nm", comps)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    if args.fast and args.mode != "diffused":
        raise ValueError("--fast needs --mode diffused")
    cfg = load_config(args)
    det = Detuning.from_nm(args.detuning_nm, cfg.system.lambda_m_nm)
    p = cfg.system.with_detuning(det)
    modes = eigenmodes(p, det)
    lines = [modes.omega_minus_GHz, modes.omega_plus_GHz, p.omega_m_GHz]
    pad = 8.0 * max(p.gamma_m_GHz, p.gamma_x_GHz)
    grid = np.linspace(min(lines) - pad, max(lines) + pad, args.points)
    if args.mode == "analytic":
        spec = spectral_function(grid, p, det)
    elif args.mode == "master":
        spec = dynamics.emission_spectrum(p, det, grid)
    else:
        spec = specdiff.averaged_spectrum(p, det, cfg.telegraph, grid,
                                          mode="master" if not args.fast else "fast")
    if args.no_instrument:
        spec = spec.to_wavelength()
    else:
        # The convolution needs a uniform wavelength grid at the spectrometer step.
        step_nm = max(cfg.instrument.spectral_resolution_pm * 1e-3 / 8.0, 1e-5)
        spec = _wavelength_grid_spectrum(spec, step_nm)
        try:
            spec = instrument.convolve_spectrum(spec, cfg.instrument)
        except ValueError as exc:
            raise ValueError(f"instrument.spectral_resolution_pm = "
                             f"{cfg.instrument.spectral_resolution_pm}: {exc}") from exc
    columns = {"wavelength_nm": spec.axis, "intensity": spec.intensity}
    for name, values in spec.components.items():
        columns[f"component_{name}"] = values
    write_csv(args.out, columns,
              _meta(cfg, "spectrum", mode=args.mode, detuning_nm=args.detuning_nm,
                    instrument="off" if args.no_instrument else "on"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_values(args) -> np.ndarray:
    if args.steps < 1:
        raise ValueError("sweep needs at least 1 step")
    return np.linspace(args.dl_start, args.dl_end, args.steps)


def _params_at(cfg: RunConfig, dl: float) -> tuple[SystemParams, Detuning]:
    """Paper-style sweep point: exciton fixed, cavity stepped to lambda_x - dl."""
    p = replace(cfg.system, lambda_m_nm=cfg.system.lambda_x_nm - dl)
    return p, Detuning.from_nm(dl, cfg.system.lambda_x_nm)


def cmd_anticross(args) -> int:
    cfg = load_config(args)
    rows_blue, rows_red = [], []
    dls = _sweep_values(args)
    for dl in dls:
        p, det = _params_at(cfg, dl)
        modes = eigenmodes(p, det)
        pad = 6.0 * max(p.gamma_m_GHz, p.gamma_x_GHz)
        grid = np.linspace(modes.omega_minus_GHz - pad,
                           modes.omega_plus_GHz + pad, args.points)
        if args.mode == "master":
            spec = dynamics.emission_spectrum(p, det, grid)
        else:
            spec = spectral_function(grid, p, det)
        peaks = fitkit.peak_locations(spec.axis, spec.intensity, 2)
        rows_blue.append(wavelength_to_frequency(1.0) / peaks[1])
        rows_red.append(wavelength_to_frequency(1.0) / peaks[0])
    write_csv(args.out,
              {"dl_nm": dls, "lambda_blue_nm": np.array(rows_blue),
               "lambda_red_nm": np.array(rows_red)},
              _meta(cfg, "anticross", mode=args.mode,
                    lambda_x_nm=cfg.system.lambda_x_nm))
    return EXIT_OK


def _lifetime_point(cfg: RunConfig, dl: float, method: str, seed) -> float:
    p, det = _params_at(cfg, dl)
    if method == "formula":
        return purcell_lifetime(p, det).tau_ns
    # Collected PL = both radiative channels, folded onto one period [0, T).
    times = trajectories.run_pulsed(p, det, cfg.pulses, seed=seed).times_ns
    if times.size < 100:
        raise dynamics.NumericalError(
            f"only {times.size} clicks at detuning {dl} nm; increase n_pulses")
    period = cfg.pulses.rep_period_ns
    mean = float(np.mean(np.mod(times, period)))

    # Mean of e^{-t/tau} folded onto [0, T), tau - T/(e^{T/tau} - 1): it rises
    # from 0 to T/2, and the maximum-likelihood tau makes it the clicks' mean.
    def folded_mean(tau):
        return tau + period / math.expm1(-period / tau) + period

    if not 0 < mean < folded_mean(period):
        raise dynamics.NumericalError(
            f"mean folded click time {mean:.3g} ns at detuning {dl} nm gives a "
            f"lifetime at or beyond the repetition period {period:.3g} ns")
    lo, hi = mean, period  # folded_mean(tau) < tau, so tau lies above the mean
    for _ in range(60):  # bisection on log tau
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if folded_mean(mid) > mean else (mid, hi)
    return math.sqrt(lo * hi)


def cmd_lifetime(args) -> int:
    cfg = load_config(args)
    seed = _require_seed(cfg) if args.method == "trajectories" else cfg.seed
    dls = _sweep_values(args)
    taus = np.array([_lifetime_point(cfg, dl, args.method, seed) for dl in dls])
    write_csv(args.out, {"dl_nm": dls, "tau_ns": taus},
              _meta(cfg, "lifetime", method=args.method))
    return EXIT_OK


# ---------------------------------------------------------------------------
# g2
# ---------------------------------------------------------------------------

def _write_tables(tables: list[tuple[str, dict, dict]]) -> None:
    """Write each (path, columns, meta); a failed write unlinks those written before it."""
    for i, (path, columns, meta) in enumerate(tables):
        try:
            write_csv(path, columns, meta)
        except BaseException:
            for written, _, _ in tables[:i]:
                os.unlink(written)
            raise


def cmd_g2(args) -> int:
    duration_ns = 1e6 if args.duration_ns is None else args.duration_ns
    estimator = args.estimator or "all-pairs"
    if not (args.bin_ns > 0 and args.window_ns > args.bin_ns and duration_ns > 0):
        raise ValueError("g2 needs --bin-ns > 0, --window-ns > --bin-ns "
                         "and --duration-ns > 0")
    if args.window_ns / args.bin_ns > hbt.MAX_BINS_PER_SIDE:
        raise ValueError(f"g2 needs --window-ns / --bin-ns <= {hbt.MAX_BINS_PER_SIDE}, "
                         f"got {args.window_ns / args.bin_ns:.3g}")
    if args.method == "regression":
        given = [flag for flag, value in (
            ("--pulsed", args.pulsed), ("--instrument", args.instrument),
            ("--duration-ns", args.duration_ns is not None),
            ("--estimator", args.estimator is not None)) if value]
        if given:
            raise ValueError(f"regression g2 is a CW steady-state correlation with no "
                             f"clicks: {given[0]} needs --method trajectories")
    elif args.pulsed and args.duration_ns is not None:
        raise ValueError("pulsed g2 runs pulses.n_pulses pulses: --duration-ns "
                         "needs a CW g2 (no --pulsed)")
    cfg = load_config(args)
    det = Detuning.from_nm(args.detuning_nm, cfg.system.lambda_m_nm)
    p = cfg.system.with_detuning(det)
    if args.method == "regression":
        tau = np.arange(0.0, args.window_ns + args.bin_ns, args.bin_ns)
        if args.kind == "auto":
            trace = dynamics.g2_auto(p, det, tau)
        else:
            trace = dynamics.g2_cross(p, det, tau)
        write_csv(args.out_prefix + "_g2.csv",
                  {"tau_ns": trace.tau_ns, "g2": trace.values},
                  _meta(cfg, "g2", kind=args.kind, method="regression",
                        detuning_nm=args.detuning_nm))
        return EXIT_OK
    seed = _require_seed(cfg)
    if args.pulsed:
        clicks = trajectories.run_pulsed(p, det, cfg.pulses, seed=seed)
    else:
        clicks = trajectories.run_cw(p, det, duration_ns, seed)
    if args.instrument:
        clicks = instrument.jitter_and_thin(clicks, cfg.instrument, seed=seed + 1)
    if args.kind == "auto":
        mode_times = clicks.times("cavity_loss")
        starts, stops = hbt.split_beam(mode_times, seed=seed + 2)
    else:
        starts, stops = clicks.times("exciton_radiative"), clicks.times("cavity_loss")
    if starts.size == 0 or stops.size == 0:
        raise dynamics.NumericalError("no clicks on one detector; nothing to correlate")
    hist = hbt.start_stop_histogram(starts, stops, bin_ns=args.bin_ns,
                                    window_ns=args.window_ns,
                                    estimator=estimator)
    if args.pulsed:
        period = cfg.pulses.rep_period_ns
        report = hbt.pulsed_peak_areas(hist, period, period / 4.0)
        g2 = report.g2
    else:
        g2 = hbt.normalize_g2(hist, duration_ns).values
    # Files are written last, so a command that fails leaves none behind.
    tables = [(args.out_prefix + "_clicks.csv",
               {"channel": np.array(clicks.labels)[clicks.channel_codes],
                "time_ns": clicks.times_ns},
               _meta(cfg, "g2", kind=args.kind, stage="clicks",
                     detuning_nm=args.detuning_nm))]
    if args.pulsed:
        tables.append((args.out_prefix + "_peaks.csv",
                       {"peak_index": report.peak_offsets,
                        "offset_ns": report.peak_offsets * period,
                        "area": report.peak_areas},
                       _meta(cfg, "g2", stage="peak-areas",
                             central_ratio=report.ratio,
                             half_window_ns=period / 4.0)))
    tables.append((args.out_prefix + "_histogram.csv",
                   {"tau_ns": hist.centers_ns, "counts": hist.counts, "g2": g2},
                   _meta(cfg, "g2", kind=args.kind, stage="histogram",
                         estimator=estimator, bin_ns=args.bin_ns,
                         n_starts=hist.n_starts, n_stops=hist.n_stops,
                         detuning_nm=args.detuning_nm)))
    _write_tables(tables)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

# The columns each model reads: the layouts that `cavqed spectrum`,
# `anticross`, `lifetime` and `g2 --method trajectories` (histogram) write.
_FIT_COLUMNS = {
    "lorentz": ("wavelength_nm", "intensity"),
    "anticross": ("dl_nm", "lambda_blue_nm", "lambda_red_nm"),
    "lifetime": ("dl_nm", "tau_ns"),
    "decay": ("tau_ns", "counts"),
}


def _fit_from_csv(args, cfg: RunConfig) -> fitkit.FitResult:
    _, cols = read_csv(args.data)
    need = _FIT_COLUMNS[args.model]
    if not all(c in cols for c in need):
        raise ValueError(f"{args.model} fit needs the columns {','.join(need)}")
    if args.model == "lorentz":
        spec = Spectrum(cols["wavelength_nm"], cols["intensity"], "wavelength_nm")
        return fitkit.fit_lorentzians(spec, args.n_peaks,
                                      gaussian_fwhm=args.gaussian_fwhm_nm)
    if args.model == "anticross":
        dl = np.concatenate([cols["dl_nm"], cols["dl_nm"]])
        lam = np.concatenate([cols["lambda_blue_nm"], cols["lambda_red_nm"]])
        init = {"gamma_x_GHz": cfg.system.gamma_x_GHz,
                "gamma_m_GHz": cfg.system.gamma_m_GHz}
        return fitkit.fit_anticrossing(dl, lam, init=init,
                                       fit_offset=args.fit_offset)
    if args.model == "lifetime":
        # `cavqed lifetime` holds the exciton fixed, so dl converts at lambda_x.
        return fitkit.fit_lifetime_curve(cols["dl_nm"], cols["tau_ns"],
                                         gamma_m_GHz=cfg.system.gamma_m_GHz,
                                         lambda_ref_nm=cfg.system.lambda_x_nm)
    irf = args.irf_ps * 1e-3 if args.irf_ps else None
    return fitkit.fit_decay((cols["tau_ns"], cols["counts"]),
                            "bi" if args.bi else "mono", irf_fwhm_ns=irf)


def cmd_fit(args) -> int:
    for flag, value in (("--gaussian-fwhm-nm", args.gaussian_fwhm_nm),
                        ("--irf-ps", args.irf_ps)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    cfg = load_config(args)
    result = _fit_from_csv(args, cfg)
    if not result.converged:
        raise dynamics.NumericalError(f"fit did not converge: {result.message}")
    names = list(result.params)
    write_csv(args.out,
              {"param": np.array(names),
               "value": np.array([result.params[n] for n in names]),
               "stderr": np.array([result.stderr[n] for n in names])},
              _meta(cfg, "fit", model=args.model, data=os.path.basename(args.data),
                    converged=result.converged, residual_norm=result.residual_norm,
                    n_iterations=result.n_iterations,
                    **{f"derived_{k}": v for k, v in result.derived.items()
                       if isinstance(v, (int, float, bool))}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavqed",
        description="Coupled quantum dot-nanocavity simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=f"cavqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
        sp.add_argument("--seed", type=int, help="random seed override")

    sp = sub.add_parser("spectrum", help="emission spectrum at one detuning")
    common(sp)
    sp.add_argument("--detuning-nm", type=float, default=0.0)
    sp.add_argument("--mode", choices=["analytic", "master", "diffused"],
                    default="analytic")
    sp.add_argument("--fast", action="store_true",
                    help="diffused mode: closed-form regime spectra")
    sp.add_argument("--points", type=int, default=4001)
    sp.add_argument("--no-instrument", action="store_true",
                    help="skip the spectrometer: write the computed grid, "
                         "in wavelength")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("anticross", help="polariton wavelengths across a detuning sweep")
    common(sp)
    sp.add_argument("--dl-start", type=float, required=True)
    sp.add_argument("--dl-end", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--mode", choices=["analytic", "master"], default="analytic")
    sp.add_argument("--points", type=int, default=2001)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_anticross)

    sp = sub.add_parser("lifetime", help="exciton lifetime across a detuning sweep")
    common(sp)
    sp.add_argument("--dl-start", type=float, required=True)
    sp.add_argument("--dl-end", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--method", choices=["formula", "trajectories"],
                    default="formula")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_lifetime)

    sp = sub.add_parser("g2", help="intensity correlations")
    common(sp)
    sp.add_argument("--kind", choices=["auto", "cross"], default="auto")
    sp.add_argument("--method", choices=["regression", "trajectories"],
                    default="regression")
    sp.add_argument("--pulsed", action="store_true")
    sp.add_argument("--detuning-nm", type=float, default=0.0)
    sp.add_argument("--duration-ns", type=float, default=None,
                    help="CW trajectories: acquisition length of the one emitter "
                         "(default 1e6)")
    sp.add_argument("--window-ns", type=float, default=100.0)
    sp.add_argument("--bin-ns", type=float, default=0.25)
    sp.add_argument("--estimator", choices=["all-pairs", "start-stop"], default=None,
                    help="trajectories: histogram estimator (default all-pairs)")
    sp.add_argument("--instrument", action="store_true",
                    help="apply detector jitter and efficiency to the clicks")
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_g2)

    sp = sub.add_parser("fit", help="fit a model to an emitted CSV file")
    common(sp)
    sp.add_argument("--model", choices=list(_FIT_COLUMNS), required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--n-peaks", type=int, choices=[1, 2, 3], default=3)
    sp.add_argument("--gaussian-fwhm-nm", type=float, default=0.0,
                    help="lorentz fit: deconvolve this Gaussian response")
    sp.add_argument("--irf-ps", type=float, default=None,
                    help="decay fit: deconvolve this detector IRF")
    sp.add_argument("--bi", action="store_true", help="bi-exponential decay")
    sp.add_argument("--fit-offset", action="store_true",
                    help="anticross: free global detuning offset")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit)
    return parser


def _check_flags(args) -> None:
    """Refuse a float flag that is not finite and a grid of under 3 points."""
    for key, value in vars(args).items():
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "points", 3) < 3:
        raise ValueError(f"--points must be at least 3, got {args.points}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (dynamics.NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # after LinAlgError, which is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
