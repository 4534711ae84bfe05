"""Quantum-trajectory unravelling of the detected photon channels.

The conditional state is a density matrix ρ kept as its coherence-order
k = 0 block (see :mod:`cavqed.dynamics`), which every click and every
capture preserves.  Only the two detected channels are unravelled:
cavity_loss clicks are "mode photons" and exciton_radiative clicks "exciton
photons".  Between clicks ρ follows L₀ = L − Σ J⊗J*, the master-equation
generator less the jump terms of those two channels, so every undetected
channel (dephasing, pumping, transfer) is averaged over.  This leaves the
distribution of detected click records unchanged (Wiseman & Milburn,
*Quantum Measurement and Control*, 2010, ch. 4).

P(s) = Tr e^{L₀s}ρ is the probability of no click within s.  A click
happens when P falls to a uniform draw u, at a time solved to 1e-12
relative; the channel is drawn with weights Tr(JρJ†) and ρ → JρJ†/Tr.
The engine forms L₀'s k = 0 block as the model's block of L less the two
J⊗J* blocks and decomposes it, L₀ = VΛV⁻¹.  It carries the state in that
eigenbasis, c = V⁻¹ρ, so a no-click stretch multiplies each coordinate by
its own exponential and nothing is time-stepped; the jumps and the capture
map act as V⁻¹MV.  Near an exceptional point, where V is ill-conditioned,
the same loop runs with V = I and e^{L₀s} from ``scipy.linalg.expm``.

The click time is a safeguarded Newton solve of log P(s) = log u.  Its
start is exact: P(0) = Tr ρ = 1, P′(0) = −Σ Tr(JρJ†) and P″(0) are read off
the state with no exponential.  Probe rows for P, P′ and P″ give the
curvature at every step, so a Newton step whose remaining error is well
under the tolerance ends the solve without evaluating P again.

Randomness comes from counter-based Philox streams keyed by
(master seed, trajectory index), so runs are bit-reproducible and the
trajectories of an ensemble are independent.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import dynamics, hilbert
from .dynamics import NumericalError
from .hbt import Histogram
from .polariton import SystemParams
from .units import Detuning, philox

__all__ = [
    "PulseConfig",
    "ClickStream",
    "run_cw",
    "run_pulsed",
    "ensemble_populations",
    "lifetime_from_clicks",
]

DETECTED = ("cavity_loss", "exciton_radiative")
_REL_TOL = 1e-12


@dataclass(frozen=True)
class PulseConfig:
    """Pulsed-excitation model: Poisson captures with exponential delay.

    Each pulse launches k ~ Poisson(mean_captures_per_pulse) carrier
    captures, each after an independent exponential delay of mean
    ``capture_delay_ns``.  A capture is the trace-preserving map
    ρ → σ†ρσ + (1−P)ρ(1−P), where σ† raises the ground state to the exciton
    and P = σσ† projects on the ground state: it raises an emitter in its
    ground state, and one already excited Pauli-blocks it, so the carrier is
    lost.  With ``allow_recapture`` off only the first capture of each pulse
    acts.
    """

    rep_rate_MHz: float = 40.0
    mean_captures_per_pulse: float = 1.0
    capture_delay_ns: float = 0.060
    n_pulses: int = 1000
    allow_recapture: bool = True

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (0 < self.rep_rate_MHz < math.inf and 0 < self.capture_delay_ns < math.inf):
            raise ValueError("rep rate and capture delay must be positive and finite")
        if not 0 < self.mean_captures_per_pulse < math.inf:
            raise ValueError("mean captures per pulse must be positive and finite")
        if not self.n_pulses >= 1:
            raise ValueError("need at least one pulse")

    @property
    def rep_period_ns(self) -> float:
        return 1e3 / self.rep_rate_MHz

    @property
    def duration_ns(self) -> float:
        return self.n_pulses * self.rep_period_ns


@dataclass
class ClickStream:
    """Column-packed sequence of click records from one trajectory."""

    times_ns: np.ndarray
    channel_codes: np.ndarray
    labels: tuple
    duration_ns: float

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


class _Engine:
    """Conditional-state unravelling of the detected channels of one model.

    The state is carried as c = V⁻¹x, its coordinates in the eigenvectors V
    of L₀'s k = 0 block, so that a no-click stretch scales each coordinate
    by its own exponential.  Every operator that acts on the state is held
    as V⁻¹MV and every row as row·V.  On the expm fallback V = I.
    """

    def __init__(self, model: dynamics._Model):
        self.model = model
        idx, gen = model.generator(0)
        # Block entry n is ρ[i[n], j[n]].
        self._i, self._j = np.divmod(idx, model.space.dim)
        trace = (self._i == self._j).astype(float)
        ops = {c.label: c.jump_operator for c in model.channels}
        jumps = [self.sandwich(ops[label]) for label in DETECTED]
        b = self.block = dynamics._decompose(idx, gen - sum(jumps))
        if b.vinv is None:
            self.vecs = self.vinv = np.eye(idx.size)
            self._slowest = 0.0
        else:
            self.vecs, self.vinv = b.vecs, b.vinv
            self._slowest = float(np.max(b.evals.real))
            self._shifted = b.evals - self._slowest
        self.jumps = [self.to_modes(j) for j in jumps]
        # Row k gives Tr(J_k ρ J_k†); their sum is the click rate −P′.
        emission = np.array([trace @ j for j in jumps])
        self.emission = emission @ self.vecs
        rate = -emission.sum(axis=0)
        # Rows giving P, P′ and P″ of a no-click state.
        self._probe = np.vstack([trace, rate, rate @ b.gen]) @ self.vecs
        ground = model.space.index(hilbert.GROUND, 0)
        self.ground = self.vinv @ ((self._i == ground) & (self._j == ground)).astype(float)

    def sandwich(self, op: np.ndarray) -> np.ndarray:
        """ρ → op ρ op† on the k = 0 block, for an op that shifts N by a fixed amount."""
        return dynamics._kron_block(op, op.conj(), self._i, self._j)

    def to_modes(self, m: np.ndarray) -> np.ndarray:
        """V⁻¹MV: the map M on block entries, acting on the carried state."""
        return self.vinv @ m @ self.vecs

    def stretch(self, c: np.ndarray, s: float) -> np.ndarray:
        """e^{(L₀ − λ_slow)s}c: the state after s with no click, times e^{−λ_slow s}.

        λ_slow is the largest Re λ of L₀ (0 on the expm fallback).  The
        scaling keeps the state finite long after P itself would underflow.
        """
        if self.block.vinv is None:
            return scipy.linalg.expm(self.block.gen * s) @ c
        return c * np.exp(self._shifted * s)

    def _levels(self, y: np.ndarray, s: float) -> tuple:
        """(log P, (log P)′, (log P)″) at s, for y = stretch(c, s) with Tr c = 1."""
        # Python floats from here on: numpy scalar arithmetic is much slower.
        q, d1, d2 = (self._probe @ y).real.tolist()
        if not q > 0:
            return -math.inf, 0.0, 0.0
        d1 /= q
        return self._slowest * s + math.log(q), d1, d2 / q - d1 * d1

    def evaluate(self, c: np.ndarray, s: float) -> tuple:
        """stretch(c, s) and (log P, (log P)′, (log P)″) there: one evaluation of P."""
        y = self.stretch(c, s)
        return y, self._levels(y, s)

    def click_weights(self, y: np.ndarray) -> np.ndarray:
        return (self.emission @ y).real

    def _click_time(self, c: np.ndarray, log_u: float, seg: float, end: tuple) -> float:
        """The s in [0, seg] with log P(s) = log u, given P(0) = 1 > u > P(seg).

        Newton's method on f = log P − log u, exact for a single exponential.
        f, f′ and f″ at s = 0 are read off c with no exponential; ``end``
        holds them at seg.  Newton starts from 0 if its step from there lands
        in [0, seg], otherwise from seg.  A step that leaves the bracket,
        that f′ = 0 forbids, or that is not under half the step before last
        is replaced by bisection, so the steps shrink at least geometrically
        (rtsafe, Numerical Recipes §9.4).  The solve stops once a step is
        under the tolerance, or once a Newton step is under 1e-3 s and the
        error it leaves, about |f″/2f′|·step², is under a tenth of the
        tolerance.
        """
        lo, hi = 0.0, seg
        s, (f, df, ddf) = 0.0, self._levels(c, 0.0)
        if not _lands(s, f - log_u, df, lo, hi):
            s, (f, df, ddf) = seg, end
        f -= log_u
        step = before = math.inf
        while True:
            newton = df < 0 and abs(2.0 * f) <= abs(before * df) and _lands(s, f, df, lo, hi)
            before = step
            if newton:
                step = f / df
                s -= step
                if (abs(step) <= 1e-3 * s
                        and abs(ddf / (2.0 * df)) * step * step <= 0.1 * _REL_TOL * s):
                    return s
            else:
                step = 0.5 * (hi - lo)
                s = lo + step
            if abs(step) <= _REL_TOL * s:
                return s
            _, (f, df, ddf) = self.evaluate(c, s)
            f -= log_u
            if f > 0:
                lo = s
            else:
                hi = s

    def advance(self, rng, c: np.ndarray, u: float, t: float, t_end: float,
                times: list, codes: list):
        """Evolve the state c (unit trace) from t to t_end, recording each click.

        ``u`` is the no-click probability at which the next click fires.
        Returns c renormalized at t_end and u divided by the no-click
        probability of the last stretch, which keeps the waiting-time
        statistics exact across calls.
        """
        while True:
            seg = t_end - t
            log_u = math.log(u)
            y, end = self.evaluate(c, seg)
            if end[0] >= log_u:
                return y / (self._probe[0] @ y).real, u / math.exp(end[0])
            s = self._click_time(c, log_u, seg, end)
            y = self.stretch(c, s)
            weights = self.click_weights(y).tolist()
            total = sum(weights)
            if not total > 0:
                raise NumericalError(f"no detected channel has weight at a click "
                                     f"(t={t + s:.6g} ns, log P {self._levels(y, s)[0]:.3e})")
            k = bisect.bisect_right(list(itertools.accumulate(weights)), rng.random() * total)
            c = self.jumps[k] @ y / weights[k]
            t += s
            times.append(t)
            codes.append(k)
            u = rng.random()


def _lands(s: float, f: float, df: float, lo: float, hi: float) -> bool:
    """Whether the Newton step from s, s − f/f′, lies in [lo, hi]."""
    return ((s - hi) * df - f) * ((s - lo) * df - f) <= 0


def run_cw(p: SystemParams, detuning: Detuning, duration_ns: float, seed: int,
           discard_ns: float = 0.0) -> ClickStream:
    """Continuous-wave unravelling: the clicks of one emitter over ``duration_ns``.

    Requires an incoherent pump (exciton and/or feeder); the trajectory
    starts from the absolute ground state, so pass ``discard_ns`` to drop the
    short initial transient when steady-state statistics matter.
    """
    if p.pump_GHz <= 0 and not (p.emitter_levels == 3 and p.feeder_pump_GHz > 0):
        raise ValueError("run_cw needs a pump; use run_pulsed for pulsed excitation")
    if not 0 < duration_ns < math.inf:  # NaN fails too
        raise ValueError(f"duration must be positive and finite, got {duration_ns}")
    engine = _Engine(dynamics.build_model(p, detuning))
    rng = philox(seed, 0)
    times: list[float] = []
    codes: list[int] = []
    engine.advance(rng, engine.ground, rng.random(), 0.0, duration_ns, times, codes)
    times, codes = np.asarray(times), np.asarray(codes, dtype=np.int16)
    keep = times >= discard_ns
    return ClickStream(times[keep], codes[keep], DETECTED, duration_ns)


def run_pulsed(p: SystemParams, detuning: Detuning, pulses: PulseConfig,
               seed: int) -> ClickStream:
    """Pulsed-excitation unravelling driven by the capture model.

    The CW pump channels are disabled; excitation enters exclusively through
    the capture events drawn per pulse from ``pulses``.
    """
    engine = _Engine(dynamics.build_model(
        replace(p, pump_GHz=0.0, feeder_pump_GHz=0.0), detuning))
    sigma = engine.model.space.sigma
    blocked = np.eye(sigma.shape[0]) - sigma @ sigma.conj().T
    capture = engine.to_modes(engine.sandwich(sigma.conj().T) + engine.sandwich(blocked))
    rng = philox(seed, 0)
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
    c, u, t = engine.ground, rng.random(), 0.0
    for t_cap in events:
        c, u = engine.advance(rng, c, u, t, t_cap, times, codes)
        # Trace-preserving and unobserved, so u carries across it.
        c = capture @ c
        t = t_cap
    engine.advance(rng, c, u, t, total, times, codes)
    return ClickStream(np.asarray(times), np.asarray(codes, dtype=np.int16),
                       DETECTED, total)


def ensemble_populations(p: SystemParams, detuning: Detuning,
                         operator: np.ndarray, t_grid_ns: np.ndarray,
                         n_trajectories: int, seed: int):
    """Trajectory-ensemble expectation of ``operator`` on a time grid.

    Each trajectory starts in the absolute ground state and samples
    Tr(Oρ)/Tr ρ of its conditional state at every grid time.  Returns
    (mean, standard error) arrays; the mean converges to the master-equation
    expectation, which is what the equivalence tests assert.  The operator
    must conserve the excitation number, as projectors and number operators
    do, since the conditional state holds only the k = 0 block.
    """
    engine = _Engine(dynamics.build_model(p, detuning))
    op = np.asarray(operator)
    if np.any(op.reshape(-1)[engine.model.orders != 0]):
        raise ValueError("operator does not conserve the excitation number")
    row = op.T.reshape(-1)[engine.block.idx] @ engine.vecs
    t_grid = np.asarray(t_grid_ns, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be non-empty, non-negative and non-decreasing")
    samples = np.empty((n_trajectories, t_grid.size))
    for i in range(n_trajectories):
        rng = philox(seed, i)
        c, u, t = engine.ground, rng.random(), 0.0
        for j, t_next in enumerate(t_grid):
            c, u = engine.advance(rng, c, u, t, t_next, [], [])
            samples[i, j] = (row @ c).real
            t = t_next
    return samples.mean(axis=0), samples.std(axis=0) / math.sqrt(n_trajectories)


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
    return Histogram(edges, counts, n_starts=times.size, n_stops=times.size)
