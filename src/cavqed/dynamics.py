"""Master-equation layer: propagation, steady state, spectra, correlations.

The Lindblad generator L acts on row-major vectorized density matrices.
H and every collapse operator shift N = a†a + |x⟩⟨x| + |f⟩⟨f| by a fixed
amount, so L is block-diagonal in the coherence order k = N_i − N_j of
|i⟩⟨j|.  L itself is never formed: on first use a model assembles a block
L_k from pieces of H and the jump operators and diagonalizes it, L_k = V Λ V⁻¹:

* propagation is e^{Lt} = V e^{Λt} V⁻¹ on every block the state occupies;
* a two-time correlation (quantum regression theorem) is Σ_k c_k e^{λ_k τ},
  summed over the modes, with the g2 vectors JρJ† in k = 0;
* a spectrum is the exact resolvent Re Σ_k c_k / (2πiΔν − λ_k), with aρ
  and σρ in k = −1.

Where a block's cond(V) exceeds ``_COND_MAX`` (near an exceptional point),
propagation there falls back to ``scipy.linalg.expm`` and the spectrum to a
direct solve of (2πiΔν − L_k).  Spectra and correlations are summed over
slices of ``_ROWS`` grid points, so their temporaries stay bounded however
long the grid.  The steady state is the k = 0 block's one zero-eigenvalue
mode, read off the same decomposition and cached on the model.

Each function takes a detuning or a ``model=`` that carries one.
Frequencies are ordinary GHz, times ns; the generator itself is in rad/ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import hilbert
from .hilbert import StateSpace, collapse_channels, hamiltonian
from .polariton import Spectrum, SystemParams, eigenmodes
from .units import Detuning

__all__ = [
    "CorrelationTrace",
    "NumericalError",
    "liouvillian",
    "build_model",
    "evolve",
    "steady_state",
    "emission_spectrum",
    "g2_auto",
    "g2_cross",
    "expectation",
]

TWO_PI = 2.0 * math.pi

# Above this cond(V), V e^{Λt} V⁻¹ loses more than ~1e-10 of accuracy and
# the expm / direct-solve path is used instead.
_COND_MAX = 1e6
# Eigenvalues with Re λ above -_UNDAMPED_REL * max|λ| do not decay within
# the precision of the decomposition (the stationary state among them).
_UNDAMPED_REL = 1e-9
# Largest share of a correlation's weight that undamped terms may carry
# before the spectrum would need a delta line.
_UNDAMPED_WEIGHT = 1e-9
# Mean population below which an output port is dark (ρss rounding is ~1e-15).
_DARK = 1e-12
# Grid rows per slice of a spectrum or correlation sum, which bounds their
# (rows × modes) temporaries and the expm fallback's (rows × entries) array.
_ROWS = 4096


class NumericalError(RuntimeError):
    """Propagation or linear-algebra failure with diagnostic context."""


@dataclass
class CorrelationTrace:
    """Normalized two-time correlation sampled on a delay grid."""

    tau_ns: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.tau_ns = np.asarray(self.tau_ns, dtype=float)
        if np.any(np.diff(self.tau_ns) <= 0):
            raise ValueError("delay grid must be strictly increasing")
        values = np.asarray(self.values)
        if np.iscomplexobj(values):
            worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
            if worst > 1e-8 * max(1.0, float(np.max(np.abs(values.real)))):
                raise NumericalError(f"correlation trace has imaginary residue {worst}")
            values = values.real
        self.values = values.astype(float)
        if self.values.min() < -1e-8:
            raise NumericalError(f"correlation trace negative: min {self.values.min()}")


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Real expectation value Tr(op rho)."""
    return float(np.trace(op @ rho).real)


def _kron_block(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """kron(a, b)[np.ix_(idx, idx)] for the row-major entries idx = i·d + j."""
    return a[i[:, None], i] * b[j[:, None], j]


def liouvillian(h_ang: np.ndarray, jump_ops: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Block L[idx, idx] of the Lindblad generator on row-major vectorized states (rad/ns).

    Terms add in the order of the kron form of L, so the block equals that
    form's bit for bit.
    """
    ident = np.eye(h_ang.shape[0], dtype=complex)
    i, j = np.divmod(idx, h_ang.shape[0])
    gen = -1j * (_kron_block(h_ang, ident, i, j) - _kron_block(ident, h_ang.T, i, j))
    for c in jump_ops:
        cdc = c.conj().T @ c
        gen += _kron_block(c, c.conj(), i, j)
        gen -= 0.5 * (_kron_block(cdc, ident, i, j) + _kron_block(ident, cdc.T, i, j))
    return gen


class _Block(NamedTuple):
    """Block L[idx, idx] = V diag(evals) V⁻¹; ``vinv`` is None when cond(V) > _COND_MAX."""

    idx: np.ndarray
    gen: np.ndarray
    evals: np.ndarray
    vecs: np.ndarray
    vinv: np.ndarray | None
    cond: float

    def propagate(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """e^{gen t} x for every t, shape (len(t), len(x))."""
        if self.vinv is None:
            return np.array([scipy.linalg.expm(self.gen * ti) @ x for ti in t])
        return (np.exp(np.outer(t, self.evals)) * (self.vinv @ x)) @ self.vecs.T


def _decompose(idx: np.ndarray, gen: np.ndarray) -> _Block:
    """Eigendecomposition of the block ``gen`` on the entries ``idx``."""
    # QZ with B = I instead of geev: geev's scaling balance loses ~1e-8
    # of accuracy when tiny rates (entries ~1e-28) sit next to large ones.
    evals, vecs = scipy.linalg.eig(gen, np.eye(idx.size))
    vecs /= np.linalg.norm(vecs, axis=0)
    cond = float(np.linalg.cond(vecs))
    vinv = np.linalg.inv(vecs) if cond <= _COND_MAX else None
    return _Block(idx, gen, evals, vecs, vinv, cond)


@dataclass(frozen=True)
class _Model:
    """Prebuilt operators for one parameter point; generator blocks on demand."""

    params: SystemParams
    detuning: Detuning
    space: StateSpace
    h_ang: np.ndarray
    channels: list
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def orders(self) -> np.ndarray:
        """Coherence order N_i − N_j of every vectorized entry |i⟩⟨j|."""
        sp = self.space
        n = np.diag(sp.number + np.eye(sp.dim) - sp.projectors["ground"]).real
        return np.rint(np.subtract.outer(n, n)).astype(int).reshape(-1)

    def generator(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(idx, L[idx, idx]) for the entries idx of order k."""
        idx = np.flatnonzero(self.orders == k)
        live = [c.jump_operator for c in self.channels if c.rate_GHz > 0]
        return idx, liouvillian(self.h_ang, live, idx)

    def block(self, k: int) -> _Block:
        """Eigendecomposition of the order-k block, computed on first use."""
        if k not in self._blocks:
            self._blocks[k] = _decompose(*self.generator(k))
        return self._blocks[k]

    @cached_property
    def steady(self) -> np.ndarray:
        """Zero-eigenvalue eigenvector of the k = 0 block, trace-normalized."""
        b, d = self.block(0), self.space.dim
        mags = np.abs(b.evals)
        null = np.flatnonzero(mags < max(1e-12 * mags.max(), 1e-14))
        if null.size != 1:
            p = self.params
            why = ""
            if p.emitter_levels == 3 and p.feeder_pump_GHz == 0 and p.feeder_decay_GHz == 0:
                why = ("; the feeder level is isolated, with feeder_pump_GHz = 0 "
                       "and feeder_decay_GHz = 0")
            raise NumericalError(
                f"degenerate steady state: generator null space has dimension {null.size}{why}"
            )
        rho = np.zeros((d, d), dtype=complex)
        rho.flat[b.idx] = b.vecs[:, null[0]]
        rho /= np.trace(rho)
        residual = float(np.linalg.norm(b.gen @ rho.flat[b.idx]))
        if residual > 1e-10:
            raise NumericalError(f"steady-state residual {residual:.3e} exceeds 1e-10")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        return rho


def build_model(p: SystemParams, detuning: Detuning) -> _Model:
    """Operators of ``p`` at ``detuning``, for the functions below to share."""
    space = hilbert.build_space(p)
    h_ang = hamiltonian(p, detuning, space)
    return _Model(p, detuning, space, h_ang, collapse_channels(p, space))


def _model_for(p: SystemParams, detuning: Detuning | None,
               model: _Model | None) -> _Model:
    """``model`` if it was built for ``p`` and a given ``detuning``, else a new one.

    Raises ``ValueError`` with neither a detuning nor a model, and for a
    model built for other parameters or another detuning, whose physics
    would silently replace the requested one.
    """
    if model is None:
        if detuning is None:
            raise ValueError("no detuning: pass one, or a model built with one")
        return build_model(p, detuning)
    if model.params != p or (detuning is not None and model.detuning != detuning):
        raise ValueError("model was built for other parameters or another detuning "
                         "than the ones passed with it")
    return model


def _propagate(model: _Model, vec0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized states e^{Lt} vec0 for every t, shape (len(t), dim**2)."""
    out = np.zeros((t.size, vec0.size), dtype=complex)
    for k in np.unique(model.orders[vec0 != 0]):
        b = model.block(k)
        out[:, b.idx] = b.propagate(vec0[b.idx], t)
    return out


def _check_state(rho: np.ndarray, where: str) -> None:
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-8:
        raise NumericalError(f"{where}: trace drifted to {tr}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise NumericalError(f"{where}: state lost hermiticity")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -1e-8:
        raise NumericalError(f"{where}: negative eigenvalue {lo}")


def evolve(rho0: np.ndarray, p: SystemParams, t_grid_ns: np.ndarray,
           detuning: Detuning | None = None, validate: bool = True,
           model: _Model | None = None) -> np.ndarray:
    """Propagate a density matrix to every time in ``t_grid_ns``.

    The grid must be non-decreasing and start at t >= 0; the returned array
    has shape (len(t_grid), dim, dim) and, when ``validate`` is set, every
    sample is checked for trace, hermiticity and positivity.
    """
    model = _model_for(p, detuning, model)
    t_grid = np.asarray(t_grid_ns, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be non-decreasing and non-negative")
    rho0 = np.asarray(rho0, dtype=complex)
    d = model.space.dim
    if rho0.shape != (d, d):
        raise ValueError(f"state has shape {rho0.shape}, expected {(d, d)}")
    out = _propagate(model, rho0.reshape(-1), t_grid).reshape(t_grid.size, d, d)
    if validate:
        for t, rho in zip(t_grid, out):
            _check_state(rho, f"evolve at t={t} ns")
    return out


def steady_state(p: SystemParams, detuning: Detuning | None = None,
                 model: _Model | None = None) -> np.ndarray:
    """Steady state of the generator: its zero-eigenvalue mode, trace-normalized.

    The model reads it once off the eigendecomposition of its k = 0 block
    and returns a copy here.  Raises :class:`NumericalError` unless exactly
    one eigenvalue is zero (|λ| below 1e-12 of the largest, floor 1e-14), or
    when the residual exceeds 1e-10.
    """
    model = _model_for(p, detuning, model)
    return model.steady.copy()


def _sources(model: _Model, source: str):
    """(label, operator, flux weight in rad/ns) for the selected output port."""
    p = model.params
    table = {
        "cavity": (model.space.a, TWO_PI * p.gamma_m_GHz),
        "exciton": (model.space.sigma, TWO_PI * p.gamma_b_GHz),
    }
    if source == "auto":
        return [(k, op, w) for k, (op, w) in table.items() if w > 0]
    if source not in table:
        raise ValueError(f"unknown emission source {source!r}")
    op, w = table[source]
    return [(source, op, w)]


def _row_slices(n: int) -> list[slice]:
    """Consecutive slices of at most ``_ROWS`` rows that cover ``n`` grid rows."""
    return [slice(s, s + _ROWS) for s in range(0, n, _ROWS)]


def _resolvent(model: _Model, rho_ss: np.ndarray, op: np.ndarray,
               z: np.ndarray, label: str) -> np.ndarray:
    """Tr(op† (z − L)⁻¹ (op rho_ss)) at every z, the undamped modes removed.

    ``op`` must lower N, as a and σ do: off k = 0 no stationary part makes
    the direct solve singular at z = 0.
    """
    x0 = (op @ rho_ss).reshape(-1)
    probe0 = op.conj().reshape(-1)
    total = np.zeros(z.size, dtype=complex)
    for k in np.unique(model.orders[x0 != 0]):
        b = model.block(k)
        x, probe = x0[b.idx], probe0[b.idx]
        if b.vinv is not None:
            w = (probe @ b.vecs) * (b.vinv @ x)
            undamped = b.evals.real >= -_UNDAMPED_REL * float(np.max(np.abs(b.evals)))
            weight, total_weight = float(np.sum(np.abs(w[undamped]))), float(np.sum(np.abs(w)))
            if weight > _UNDAMPED_WEIGHT * total_weight:
                raise NumericalError(
                    f"{label} correlation has an undamped part ({weight / total_weight:.2e} "
                    "of its weight), e.g. a coherent field: the spectrum would hold a "
                    "delta line")
            evals, w = b.evals[~undamped], w[~undamped]
            for rows in _row_slices(z.size):
                total[rows] += (1.0 / np.subtract.outer(z[rows], evals)) @ w
            continue
        base = -b.gen
        ident = np.eye(b.idx.size)
        for rows in _row_slices(z.size):
            total[rows] += [probe @ np.linalg.solve(base + zi * ident, x) for zi in z[rows]]
    return total


def emission_spectrum(p: SystemParams, detuning: Detuning | None,
                      grid_GHz: np.ndarray, source: str = "auto",
                      model: _Model | None = None) -> Spectrum:
    """Emission spectrum as the exact resolvent of the field correlation.

    S(nu) is the one-sided transform of <op†(tau) op(0)> in the steady state,
    Re Tr(op† (2πi(nu − omega_m) − L)⁻¹ op rho_ss), evaluated through the
    eigendecomposition of the k = −1 block that a rho_ss and sigma rho_ss
    occupy (or a direct solve when it is ill-conditioned) on an absolute
    ordinary-frequency grid.  An undamped part of the
    correlation, which would be a delta line, raises :class:`NumericalError`.
    With ``source="auto"`` the cavity-loss and exciton-background output
    ports are summed with their photon-flux weights, which is what a detector
    collecting both channels sees.  Output is normalized to unit peak.
    """
    model = _model_for(p, detuning, model)
    detuning = model.detuning
    grid = np.asarray(grid_GHz, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("frequency grid must have at least 3 samples")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("frequency grid must be sorted ascending")
    modes = eigenmodes(p, detuning)
    narrowest = 2.0 * min(modes.hwhm_plus_GHz, modes.hwhm_minus_GHz)
    if narrowest > 0 and float(np.max(np.diff(grid))) > narrowest / 2.0:
        raise ValueError(
            f"grid spacing {np.max(np.diff(grid)):.3g} GHz too coarse for the "
            f"narrowest line ({narrowest:.3g} GHz FWHM); refine below half of it"
        )
    rho_ss = model.steady
    z = 2j * math.pi * (grid - p.omega_m_GHz)
    total = np.zeros(grid.size)
    parts = {}
    for label, op, weight in _sources(model, source):
        if weight == 0 or expectation(op.conj().T @ op, rho_ss) <= _DARK:
            continue
        part = weight * _resolvent(model, rho_ss, op, z, label).real
        parts[label] = part
        total = total + part
    if not parts:
        raise NumericalError("no emission: every output port has zero flux")
    peak = float(total.max())
    if peak <= 0:
        raise NumericalError("spectrum peak is non-positive")
    if total.min() < -1e-6 * peak:
        raise NumericalError(f"spectrum dipped negative: {total.min() / peak:.2e} of peak")
    total = np.maximum(total, 0.0)
    return Spectrum(
        grid, total / peak,
        components={k: v / peak for k, v in parts.items()},
    )


def _propagate_probe(model: _Model, x0: np.ndarray, probe: np.ndarray,
                     tau_grid: np.ndarray) -> np.ndarray:
    """Tr(probe† e^{L tau} x0) at every tau in the grid, summed over modes."""
    x0, probe = x0.reshape(-1), probe.conj().reshape(-1)
    total = np.zeros(tau_grid.size, dtype=complex)
    for k in np.unique(model.orders[x0 != 0]):
        b = model.block(k)
        x, pr = x0[b.idx], probe[b.idx]
        w = None if b.vinv is None else (pr @ b.vecs) * (b.vinv @ x)
        for rows in _row_slices(tau_grid.size):
            if w is None:
                total[rows] += b.propagate(x, tau_grid[rows]) @ pr
            else:
                total[rows] += np.exp(np.outer(tau_grid[rows], b.evals)) @ w
    return total


def g2_auto(p: SystemParams, detuning: Detuning | None,
            tau_grid_ns: np.ndarray, source: str = "cavity",
            model: _Model | None = None) -> CorrelationTrace:
    """Steady-state intensity autocorrelation of one output port.

    Normalized by the squared steady-state intensity (the CW definition).
    """
    model = _model_for(p, detuning, model)
    tau = np.asarray(tau_grid_ns, dtype=float)
    if tau.ndim != 1 or tau.size == 0 or tau[0] < 0 or np.any(np.diff(tau) <= 0):
        raise ValueError("tau grid must be increasing and non-negative")
    (label, op, _weight), = _sources(model, source)
    n_op = op.conj().T @ op
    rho = model.steady
    n_mean = expectation(n_op, rho)
    if n_mean <= _DARK:
        raise NumericalError(f"zero emission from source {label!r}: cannot normalize g2")
    x0 = op @ rho @ op.conj().T
    raw = _propagate_probe(model, x0, n_op, tau)
    return CorrelationTrace(tau, raw / n_mean**2)


def g2_cross(p: SystemParams, detuning: Detuning | None,
             tau_grid_ns: np.ndarray,
             model: _Model | None = None) -> CorrelationTrace:
    """Two-sided exciton/cavity cross-correlation.

    Positive delays condition on an exciton detection and probe the cavity
    intensity a delay tau later; negative delays mirror the roles.  The
    supplied grid must be non-negative; the returned trace covers both signs.
    """
    model = _model_for(p, detuning, model)
    tau = np.asarray(tau_grid_ns, dtype=float)
    if tau.ndim != 1 or tau.size == 0 or tau[0] < 0 or np.any(np.diff(tau) <= 0):
        raise ValueError("tau grid must be increasing and non-negative")
    space = model.space
    a, sig = space.a, space.sigma
    n_m = a.conj().T @ a
    n_x = sig.conj().T @ sig
    rho = model.steady
    mean_x, mean_m = expectation(n_x, rho), expectation(n_m, rho)
    denom = mean_x * mean_m
    if min(mean_x, mean_m) <= _DARK:
        raise NumericalError("cross-correlation undefined: one stream has zero rate")
    pos = _propagate_probe(model, sig @ rho @ sig.conj().T, n_m, tau) / denom
    neg = _propagate_probe(model, a @ rho @ a.conj().T, n_x, tau) / denom
    # A zero delay sits once, on the negative side.
    after = tau > 0
    return CorrelationTrace(np.concatenate([-tau[::-1], tau[after]]),
                            np.concatenate([neg[::-1], pos[after]]))
