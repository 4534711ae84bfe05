"""Monte Carlo wave-function unraveling producing photon click records.

Between jumps the state evolves under the non-Hermitian drift
H_eff = H - (i/2) sum_k J_k†J_k, applied exactly through the eigen
decomposition of H_eff (or ``scipy.linalg.expm`` where its eigenvectors are
too ill-conditioned, as near an exceptional point), so the only time
discretization anywhere is the 1e-4 ns tolerance of the jump-time root find
on the decaying norm.  Each jump is attributed to a collapse channel;
cavity_loss jumps are "mode photons" and exciton_radiative jumps "exciton
photons".

Randomness comes from counter-based Philox streams keyed by
(master seed, trajectory index), so runs are bit-reproducible and
trajectories are independent regardless of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from . import dynamics, hilbert
from .dynamics import NumericalError
from .hbt import Histogram
from .polariton import SystemParams
from .units import Detuning

__all__ = [
    "PulseConfig",
    "ClickRecord",
    "ClickStream",
    "run_cw",
    "run_pulsed",
    "ensemble_populations",
    "lifetime_from_clicks",
]

_NORM_FLOOR = 1e-28
_JUMP_TIME_TOL_NS = 1e-4


@dataclass(frozen=True)
class PulseConfig:
    """Pulsed-excitation model: Poisson captures with exponential delay.

    Each pulse launches k ~ Poisson(mean_captures_per_pulse) carrier
    captures, each raising the emitter to the target level after an
    independent exponential delay of mean ``capture_delay_ns``.  A capture
    finding the emitter already excited is Pauli-blocked and lost.  With
    ``allow_recapture`` off only the first capture of each pulse acts.
    """

    rep_rate_MHz: float = 40.0
    mean_captures_per_pulse: float = 1.0
    capture_delay_ns: float = 0.060
    n_pulses: int = 1000
    allow_recapture: bool = True
    capture_target: str = "exciton"  # or "feeder"

    def __post_init__(self):
        if self.rep_rate_MHz <= 0 or self.capture_delay_ns <= 0:
            raise ValueError("rep rate and capture delay must be positive")
        if self.mean_captures_per_pulse <= 0:
            raise ValueError("mean captures per pulse must be positive")
        if self.n_pulses < 1:
            raise ValueError("need at least one pulse")
        if self.capture_target not in ("exciton", "feeder"):
            raise ValueError("capture_target must be 'exciton' or 'feeder'")

    @property
    def rep_period_ns(self) -> float:
        return 1e3 / self.rep_rate_MHz

    @property
    def duration_ns(self) -> float:
        return self.n_pulses * self.rep_period_ns


@dataclass(frozen=True)
class ClickRecord:
    """One detection event: the collapse channel that fired and when."""

    channel: str
    time_ns: float


@dataclass
class ClickStream:
    """Column-packed sequence of click records from one or more trajectories."""

    times_ns: np.ndarray
    channel_codes: np.ndarray
    labels: tuple
    duration_ns: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times_ns = np.asarray(self.times_ns, dtype=float)
        self.channel_codes = np.asarray(self.channel_codes, dtype=np.int16)
        if self.times_ns.shape != self.channel_codes.shape:
            raise ValueError("times and channel codes must align")
        if np.any(np.diff(self.times_ns) < 0):
            raise ValueError("click times must be non-decreasing")

    def __len__(self) -> int:
        return self.times_ns.size

    def times(self, label: str) -> np.ndarray:
        """Click times of one channel."""
        if label not in self.labels:
            raise KeyError(f"channel {label!r} not in {self.labels}")
        return self.times_ns[self.channel_codes == self.labels.index(label)]

    def counts(self) -> dict:
        return {lab: int(np.sum(self.channel_codes == i))
                for i, lab in enumerate(self.labels)}

    def records(self):
        for t, c in zip(self.times_ns, self.channel_codes):
            yield ClickRecord(self.labels[c], float(t))


class _Unraveling:
    """Shared machinery for the jump unraveling of one parameter point."""

    def __init__(self, p: SystemParams, detuning: Detuning | None,
                 include_pump: bool):
        if not include_pump:
            from dataclasses import replace
            p = replace(p, pump_GHz=0.0, feeder_pump_GHz=0.0)
        self.params = p
        self.detuning = detuning if detuning is not None else p.detuning()
        self.space = hilbert.build_space(p)
        h = hilbert.hamiltonian(p, self.detuning, self.space)
        channels = [c for c in hilbert.collapse_channels(p, self.space)
                    if c.rate_GHz > 0]
        self.labels = tuple(c.label for c in channels)
        self.jumps = [c.jump_operator for c in channels]
        h_eff = h.astype(complex)
        for j in self.jumps:
            h_eff = h_eff - 0.5j * (j.conj().T @ j)
        evals, vecs = np.linalg.eig(h_eff)
        self.h_eff = h_eff
        self.evals = evals
        self.vecs = vecs
        # Above dynamics._COND_MAX the eigen path is inaccurate: coefficients
        # are then the state itself, propagated with expm (vinv is None).
        if np.linalg.cond(vecs) <= dynamics._COND_MAX:
            self.vinv = np.linalg.inv(vecs)
            self.gram = vecs.conj().T @ vecs
        else:
            self.vinv = self.gram = None
        self.ground = self.space.ket(hilbert.GROUND, 0)
        # H_eff annihilates the absolute ground state only when nothing pumps it.
        hg = h_eff @ self.ground
        self.ground_is_dark = bool(np.max(np.abs(hg)) < 1e-12)
        # Initial probe for the jump bracketing walk: a fraction of the fastest
        # norm decay present in the spectrum of H_eff.
        fastest = float(np.max(-self.evals.imag)) if np.any(self.evals.imag < 0) else 0.0
        self.probe_step = 0.25 / fastest if fastest > 0 else 1.0

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        return psi if self.vinv is None else self.vinv @ psi

    def state_at(self, coeff: np.ndarray, dt: float) -> np.ndarray:
        if self.vinv is None:
            return scipy.linalg.expm(-1j * self.h_eff * dt) @ coeff
        return self.vecs @ (coeff * np.exp(-1j * self.evals * dt))

    def norm2_at(self, coeff: np.ndarray, dt: float) -> float:
        if self.vinv is None:
            psi = self.state_at(coeff, dt)
            return float(np.vdot(psi, psi).real)
        w = coeff * np.exp(-1j * self.evals * dt)
        return float(np.real(np.vdot(w, self.gram @ w)))

    def choose_jump(self, rng, psi_unnorm: np.ndarray):
        weights = np.array([np.vdot(j @ psi_unnorm, j @ psi_unnorm).real
                            for j in self.jumps])
        total = weights.sum()
        if total <= 0:
            raise NumericalError("no jump channel has weight; state diagnostics: "
                                 f"norm2={np.vdot(psi_unnorm, psi_unnorm).real:.3e}")
        k = rng.choice(len(self.jumps), p=weights / total)
        psi = self.jumps[k] @ psi_unnorm
        nrm = math.sqrt(np.vdot(psi, psi).real)
        return int(k), psi / nrm

    def _bracket_jump(self, coeff, seg: float, threshold: float, step0: float):
        """Walk forward until the monotone no-jump norm crosses the threshold.

        Returns (crossed, lo, hi, n2_at_end_or_hi).  Stepping adaptively keeps
        every norm evaluation representable even when the full segment would
        underflow the no-jump probability.
        """
        lo, n2_lo = 0.0, 1.0
        step = min(step0, seg) if seg > 0 else seg
        while lo < seg:
            hi = min(lo + step, seg)
            n2_hi = self.norm2_at(coeff, hi)
            if n2_hi <= 0.0:
                step *= 0.25
                if step < 1e-9 * max(seg, 1.0):
                    raise NumericalError(
                        f"zero-norm state while bracketing a jump at dt={hi:.3e} ns"
                    )
                continue
            if n2_hi < threshold:
                return True, lo, hi, n2_hi
            if n2_hi > 0.5 * n2_lo:
                step *= 2.0
            lo, n2_lo = hi, n2_hi
        return False, lo, seg, n2_lo

    def evolve_and_click(self, rng, psi, t_from, t_to, threshold, out_times,
                         out_codes, sample_times=None, sample_out=None,
                         sample_op=None):
        """Advance psi from t_from to t_to, recording jumps (and optionally
        normalized expectation samples of sample_op at absolute times).

        Returns (psi_normalized, remaining_threshold) at t_to.
        """
        t = t_from
        probe = self.probe_step
        while True:
            if self.ground_is_dark and abs(np.vdot(self.ground, psi)) ** 2 > 1.0 - 1e-14:
                # Nothing can happen until an external event: skip ahead.
                if sample_times is not None:
                    sel = (sample_times >= t) & (sample_times <= t_to)
                    sample_out[sel] = float(np.real(np.vdot(self.ground,
                                                            sample_op @ self.ground)))
                return psi, threshold
            coeff = self.coefficients(psi)
            seg = t_to - t
            crossed, lo, hi, n2_hi = self._bracket_jump(coeff, seg, threshold, probe)
            limit = t_to if not crossed else None
            if crossed:
                t_jump_rel = brentq(lambda dt: self.norm2_at(coeff, dt) - threshold,
                                    lo, hi, xtol=_JUMP_TIME_TOL_NS)
                probe = max(0.5 * t_jump_rel, self.probe_step)
                limit = t + t_jump_rel
            if sample_times is not None:
                sel = (sample_times >= t) & (sample_times <= limit)
                for idx in np.nonzero(sel)[0]:
                    dt_s = sample_times[idx] - t
                    n2_s = self.norm2_at(coeff, dt_s)
                    if n2_s > 0.0:
                        w = self.state_at(coeff, dt_s)
                        sample_out[idx] = (np.vdot(w, sample_op @ w).real
                                           / np.vdot(w, w).real)
            if not crossed:
                psi_end = self.state_at(coeff, seg)
                nrm2 = np.vdot(psi_end, psi_end).real
                if nrm2 < _NORM_FLOOR:
                    raise NumericalError(
                        f"zero-norm state at t={t_to} ns (norm2={nrm2:.3e})"
                    )
                # Renormalizing mid-flight rescales the remaining threshold so
                # the no-jump waiting statistics stay exact across segments.
                return psi_end / math.sqrt(nrm2), threshold / nrm2
            psi_pre = self.state_at(coeff, t_jump_rel)
            code, psi = self.choose_jump(rng, psi_pre)
            t = limit
            out_times.append(t)
            out_codes.append(code)
            threshold = rng.random()


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index],
                                                             dtype=np.uint64)))


def run_cw(p: SystemParams, detuning: Detuning | None = None,
           duration_ns: float = 1e5, seed: int = 0,
           n_trajectories: int = 1, discard_ns: float = 0.0,
           first_trajectory: int = 0) -> ClickStream:
    """Continuous-wave jump unraveling; clicks merged over trajectories.

    Requires an incoherent pump (exciton and/or feeder); trajectories start
    from the absolute ground state, so pass ``discard_ns`` to drop the short
    initial transient when steady-state statistics matter.
    ``first_trajectory`` offsets the per-trajectory RNG streams so batches
    run in parallel reproduce exactly the clicks of one serial run.
    """
    if p.pump_GHz <= 0 and not (p.emitter_levels == 3 and p.feeder_pump_GHz > 0):
        raise ValueError("run_cw needs a pump; use run_pulsed for pulsed excitation")
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    machine = _Unraveling(p, detuning, include_pump=True)
    all_times, all_codes = [], []
    for i in range(n_trajectories):
        rng = _rng_for(seed, first_trajectory + i)
        psi = machine.ground.copy()
        times: list[float] = []
        codes: list[int] = []
        machine.evolve_and_click(rng, psi, 0.0, duration_ns, rng.random(),
                                 times, codes)
        all_times.append(np.asarray(times))
        all_codes.append(np.asarray(codes, dtype=np.int16))
    times = np.concatenate(all_times) if all_times else np.empty(0)
    codes = np.concatenate(all_codes) if all_codes else np.empty(0, np.int16)
    order = np.argsort(times, kind="stable")
    times, codes = times[order], codes[order]
    keep = times >= discard_ns
    return ClickStream(times[keep], codes[keep], machine.labels, duration_ns,
                       meta={"mode": "cw", "seed": seed,
                             "n_trajectories": n_trajectories,
                             "detuning_nm": machine.detuning.dl_nm})


def run_pulsed(p: SystemParams, detuning: Detuning | None = None,
               pulses: PulseConfig | None = None, seed: int = 0) -> ClickStream:
    """Pulsed-excitation unraveling driven by the capture model.

    The CW pump channels are disabled; excitation enters exclusively through
    the capture events drawn per pulse from :class:`PulseConfig`.
    """
    if pulses is None:
        pulses = PulseConfig()
    machine = _Unraveling(p, detuning, include_pump=False)
    if pulses.capture_target == "feeder" and p.emitter_levels != 3:
        raise ValueError("feeder captures need emitter_levels == 3")
    if pulses.capture_target == "exciton":
        raise_op = machine.space.sigma.conj().T
    else:
        raise_op = machine.space.sigma_f.conj().T
    rng = _rng_for(seed, 0)
    period = pulses.rep_period_ns
    total = pulses.duration_ns
    # Draw the full capture schedule up front so the event loop stays simple.
    capture_times = []
    for j in range(pulses.n_pulses):
        k = rng.poisson(pulses.mean_captures_per_pulse)
        if not pulses.allow_recapture:
            k = min(k, 1)
        if k:
            delays = rng.exponential(pulses.capture_delay_ns, size=k)
            capture_times.append(j * period + np.sort(delays))
    events = (np.sort(np.concatenate(capture_times))
              if capture_times else np.empty(0))
    events = events[events < total]
    times: list[float] = []
    codes: list[int] = []
    psi = machine.ground.copy()
    threshold = rng.random()
    t = 0.0
    ground_proj = raise_op.conj().T @ raise_op  # projector on the capturable level
    for t_cap in events:
        psi, threshold = machine.evolve_and_click(rng, psi, t, t_cap, threshold,
                                                  times, codes)
        # Incoherent capture: with the weight of the capturable (ground)
        # component the emitter is raised; otherwise the capture is
        # Pauli-blocked, the carrier is lost, and the state collapses onto
        # the already-excited manifold.
        raised = raise_op @ psi
        p_ground = np.vdot(raised, raised).real
        if rng.random() < p_ground:
            psi = raised / math.sqrt(p_ground)
        else:
            blocked = psi - ground_proj @ psi
            nrm2 = np.vdot(blocked, blocked).real
            if nrm2 > 1e-24:
                psi = blocked / math.sqrt(nrm2)
        threshold = rng.random()
        t = t_cap
    machine.evolve_and_click(rng, psi, t, total, threshold, times, codes)
    return ClickStream(np.asarray(times), np.asarray(codes, dtype=np.int16),
                       machine.labels, total,
                       meta={"mode": "pulsed", "seed": seed,
                             "rep_period_ns": period,
                             "mu": pulses.mean_captures_per_pulse,
                             "detuning_nm": machine.detuning.dl_nm})


def ensemble_populations(p: SystemParams, detuning: Detuning | None,
                         operator: np.ndarray, t_grid_ns: np.ndarray,
                         n_trajectories: int, seed: int,
                         initial: np.ndarray | None = None):
    """Trajectory-ensemble expectation of ``operator`` on a time grid.

    Returns (mean, standard error) arrays; the ensemble average converges to
    the master-equation expectation, which is what the equivalence tests
    assert.  Trajectories start from ``initial`` (default: absolute ground).
    """
    machine = _Unraveling(p, detuning, include_pump=True)
    t_grid = np.asarray(t_grid_ns, dtype=float)
    samples = np.empty((n_trajectories, t_grid.size))
    for i in range(n_trajectories):
        rng = _rng_for(seed, i)
        psi = (machine.ground.copy() if initial is None
               else np.asarray(initial, dtype=complex).copy())
        out = np.empty(t_grid.size)
        out[:] = np.nan
        machine.evolve_and_click(rng, psi, 0.0, float(t_grid[-1]) + 1e-9,
                                 rng.random(), [], [],
                                 sample_times=t_grid, sample_out=out,
                                 sample_op=operator)
        samples[i] = out
    mean = np.nanmean(samples, axis=0)
    stderr = np.nanstd(samples, axis=0) / math.sqrt(n_trajectories)
    return mean, stderr


def lifetime_from_clicks(clicks: ClickStream, channel: str,
                         rep_period_ns: float, bin_ns: float = 0.05) -> Histogram:
    """Time-resolved decay histogram: click time modulo the pulse period."""
    times = clicks.times(channel)
    if times.size == 0:
        raise ValueError(f"no clicks in channel {channel!r}")
    if rep_period_ns <= 0 or bin_ns <= 0 or bin_ns >= rep_period_ns:
        raise ValueError("need 0 < bin_ns < rep_period_ns")
    folded = np.mod(times, rep_period_ns)
    n_bins = int(round(rep_period_ns / bin_ns))
    edges = np.linspace(0.0, rep_period_ns, n_bins + 1)
    counts, _ = np.histogram(folded, bins=edges)
    return Histogram(edges, counts, n_starts=times.size, n_stops=times.size,
                     meta={"channel": channel, "rep_period_ns": rep_period_ns,
                           "kind": "decay"})
