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
J⊗J* blocks; e^{L₀s} comes from its decomposition (or the expm fallback
near an exceptional point), so nothing is time-stepped.

Randomness comes from counter-based Philox streams keyed by
(master seed, trajectory index), so runs are bit-reproducible and the
trajectories of an ensemble are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    """Conditional-state unravelling of the detected channels of one model."""

    def __init__(self, model: dynamics._Model):
        self.model = model
        idx, gen = model.generator(0)
        # Block entry n is ρ[i[n], j[n]].
        self._i, self._j = np.divmod(idx, model.space.dim)
        self.trace = (self._i == self._j).astype(float)
        ops = {c.label: c.jump_operator for c in model.channels}
        self.jumps = [self.sandwich(ops[label]) for label in DETECTED]
        self.block = dynamics._decompose(idx, gen - sum(self.jumps))
        # Row k gives Tr(J_k ρ J_k†); their sum is the click rate −P′.
        self.emission = np.array([self.trace @ j for j in self.jumps])
        self._probe = np.vstack([self.trace, -self.emission.sum(axis=0)])
        if self.block.vinv is not None:
            self._modal = self._probe @ self.block.vecs
            self._slowest = float(np.max(self.block.evals.real))
            self._shifted = self.block.evals - self._slowest
        ground = model.space.index(hilbert.GROUND, 0)
        self.ground = ((self._i == ground) & (self._j == ground)).astype(complex)

    def sandwich(self, op: np.ndarray) -> np.ndarray:
        """ρ → op ρ op† on the k = 0 block, for an op that shifts N by a fixed amount."""
        return dynamics._kron_block(op, op.conj(), self._i, self._j)

    def no_click(self, x: np.ndarray):
        """Functions of s: (log P, P′/P) and the state e^{L₀s}x, for Tr x = 1.

        log P is taken relative to the slowest mode of L₀, so that it stays
        finite long after P itself would underflow.
        """
        b = self.block
        if b.vinv is None:
            def state(s):
                return b.propagate(x, (s,))[0]

            def prob(s):
                p, dp = (self._probe @ state(s)).real
                return (math.log(p), dp / p) if p > 0 else (-math.inf, 0.0)
            return prob, state
        c = b.vinv @ x
        modal = self._modal * c
        slowest, shifted = self._slowest, self._shifted

        def state(s):
            return b.vecs @ (c * np.exp(b.evals * s))

        def prob(s):
            q, dq = (modal @ np.exp(shifted * s)).real
            return (slowest * s + math.log(q), dq / q) if q > 0 else (-math.inf, 0.0)
        return prob, state

    def click_weights(self, x: np.ndarray) -> np.ndarray:
        return (self.emission @ x).real

    @staticmethod
    def click_time(prob, log_u: float, seg: float, end: tuple) -> float:
        """The s in [0, seg] with log P(s) = log u, given P(0) = 1 > u > P(seg).

        Newton's method on f = log P − log u, exact for a single exponential.
        It starts from s = 0 when a click can happen at once (P′(0) < 0),
        otherwise from s = seg, where ``end`` holds prob(seg).  A step that
        leaves the bracket, that f′ = 0 forbids, or that is not under half
        the step before last is replaced by bisection, so the steps shrink
        at least geometrically (rtsafe, Numerical Recipes §9.4).
        """
        lo, hi = 0.0, seg
        start = prob(0.0)
        s, (f, df) = (0.0, start) if start[1] < 0 else (seg, end)
        f -= log_u
        step = before = math.inf
        while True:
            # Newton lands in [lo, hi] iff these two differences differ in sign.
            newton = (df < 0 and abs(2.0 * f) <= abs(before * df)
                      and ((s - hi) * df - f) * ((s - lo) * df - f) <= 0)
            before = step
            if newton:
                step = f / df
                s -= step
            else:
                step = 0.5 * (hi - lo)
                s = lo + step
            if abs(step) <= _REL_TOL * s:
                return s
            f, df = prob(s)
            f -= log_u
            if f > 0:
                lo = s
            else:
                hi = s

    def advance(self, rng, x: np.ndarray, u: float, t: float, t_end: float,
                times: list, codes: list):
        """Evolve x (unit trace) from t to t_end, recording each click.

        ``u`` is the no-click probability at which the next click fires.
        Returns x renormalized at t_end and u divided by the no-click
        probability of the last stretch, which keeps the waiting-time
        statistics exact across calls.
        """
        while True:
            seg = t_end - t
            prob, state = self.no_click(x)
            end = prob(seg)
            log_u = math.log(u)
            if end[0] >= log_u:
                p_end = math.exp(end[0])
                return state(seg) / p_end, u / p_end
            s = self.click_time(prob, log_u, seg, end)
            x = state(s)
            weights = self.click_weights(x)
            total = weights.sum()
            if not total > 0:
                raise NumericalError(f"no detected channel has weight at a click "
                                     f"(t={t + s:.6g} ns, trace {(self.trace @ x).real:.3e})")
            k = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
            x = self.jumps[k] @ x / weights[k]
            t += s
            times.append(t)
            codes.append(k)
            u = rng.random()


def run_cw(p: SystemParams, detuning: Detuning | None = None,
           duration_ns: float = 1e5, seed: int = 0,
           discard_ns: float = 0.0) -> ClickStream:
    """Continuous-wave unravelling: the clicks of one emitter over ``duration_ns``.

    Requires an incoherent pump (exciton and/or feeder); the trajectory
    starts from the absolute ground state, so pass ``discard_ns`` to drop the
    short initial transient when steady-state statistics matter.
    """
    if p.pump_GHz <= 0 and not (p.emitter_levels == 3 and p.feeder_pump_GHz > 0):
        raise ValueError("run_cw needs a pump; use run_pulsed for pulsed excitation")
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    engine = _Engine(dynamics.build_model(p, detuning))
    rng = philox(seed, 0)
    times: list[float] = []
    codes: list[int] = []
    engine.advance(rng, engine.ground, rng.random(), 0.0, duration_ns, times, codes)
    times, codes = np.asarray(times), np.asarray(codes, dtype=np.int16)
    keep = times >= discard_ns
    return ClickStream(times[keep], codes[keep], DETECTED, duration_ns)


def run_pulsed(p: SystemParams, detuning: Detuning | None = None,
               pulses: PulseConfig | None = None, seed: int = 0) -> ClickStream:
    """Pulsed-excitation unravelling driven by the capture model.

    The CW pump channels are disabled; excitation enters exclusively through
    the capture events drawn per pulse from :class:`PulseConfig`.
    """
    if pulses is None:
        pulses = PulseConfig()
    engine = _Engine(dynamics.build_model(
        replace(p, pump_GHz=0.0, feeder_pump_GHz=0.0), detuning))
    sigma = engine.model.space.sigma
    blocked = np.eye(sigma.shape[0]) - sigma @ sigma.conj().T
    capture = engine.sandwich(sigma.conj().T) + engine.sandwich(blocked)
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
    x, u, t = engine.ground, rng.random(), 0.0
    for t_cap in events:
        x, u = engine.advance(rng, x, u, t, t_cap, times, codes)
        # Trace-preserving and unobserved, so u carries across it.
        x = capture @ x
        t = t_cap
    engine.advance(rng, x, u, t, total, times, codes)
    return ClickStream(np.asarray(times), np.asarray(codes, dtype=np.int16),
                       DETECTED, total)


def ensemble_populations(p: SystemParams, detuning: Detuning | None,
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
    row = op.T.reshape(-1)[engine.block.idx]
    t_grid = np.asarray(t_grid_ns, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be non-empty, non-negative and non-decreasing")
    samples = np.empty((n_trajectories, t_grid.size))
    for i in range(n_trajectories):
        rng = philox(seed, i)
        x, u, t = engine.ground, rng.random(), 0.0
        for j, t_next in enumerate(t_grid):
            x, u = engine.advance(rng, x, u, t, t_next, [], [])
            samples[i, j] = (row @ x).real
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
