"""Truncated emitter-photon state space and the open-system model.

Basis ordering is row-major |emitter, n_photons>: index = level*(n_max+1) + n
with emitter levels (ground, exciton[, feeder]).  All operators are dense
complex matrices; rates are FWHM ordinary frequencies in GHz and generators
carry the 2*pi so downstream propagation works in rad/ns against time in ns.

Channel conventions (rates from :class:`~cavqed.polariton.SystemParams`):

* cavity_loss        sqrt(2*pi*gamma_m) * a
* exciton_radiative  sqrt(2*pi*gamma_b) * sigma
* pure_dephasing     sqrt(2 * 2*pi*gamma_d) * sigma†sigma, gamma_d = (gamma_x-gamma_b)/2,
                     which adds exactly 2*gamma_d to the exciton FWHM
* exciton_pump       sqrt(2*pi*P) * sigma†
* transfer           sqrt(2*pi*gamma_t) * a†sigma (kills the exciton, makes a photon)
* feeder_pump        sqrt(2*pi*P_f) * |f><g|            (3-level only)
* feeder_decay       sqrt(2*pi*gamma_f) * a†|g><f|      (3-level only)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polariton import SystemParams
from .units import Detuning, detuning_GHz

__all__ = [
    "GROUND",
    "EXCITON",
    "FEEDER",
    "StateSpace",
    "CollapseChannel",
    "build_space",
    "hamiltonian",
    "collapse_channels",
]

GROUND, EXCITON, FEEDER = 0, 1, 2

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StateSpace:
    """Operators on the truncated emitter (x) Fock product space."""

    emitter_levels: int
    n_max: int
    dim: int
    a: np.ndarray          # photon annihilation
    ad: np.ndarray         # photon creation
    sigma: np.ndarray      # |g><x|, exciton lowering
    sigma_f: np.ndarray | None  # |g><f|, feeder lowering (None for 2 levels)
    number: np.ndarray     # a†a
    projectors: dict = field(default_factory=dict)

    def index(self, level: int, n: int) -> int:
        """Flat basis index of |level, n>."""
        if not (0 <= level < self.emitter_levels and 0 <= n <= self.n_max):
            raise IndexError(f"state |{level},{n}> outside the truncated space")
        return level * (self.n_max + 1) + n


@dataclass(frozen=True)
class CollapseChannel:
    """One dissipative channel: a label, its FWHM rate, and the bare operator."""

    label: str
    rate_GHz: float
    operator: np.ndarray

    @property
    def jump_operator(self) -> np.ndarray:
        """Operator including the sqrt(2*pi*rate) prefactor, in (rad/ns)^(1/2)."""
        return math.sqrt(TWO_PI * self.rate_GHz) * self.operator


def _emitter_op(levels: int, row: int, col: int) -> np.ndarray:
    op = np.zeros((levels, levels), dtype=complex)
    op[row, col] = 1.0
    return op


def build_space(p: SystemParams) -> StateSpace:
    """Construct ladder and transition operators for the configured truncation."""
    levels, nph = p.emitter_levels, p.n_max + 1
    a_ph = np.diag(np.sqrt(np.arange(1, nph)), 1).astype(complex)
    ident_ph = np.eye(nph, dtype=complex)
    ident_em = np.eye(levels, dtype=complex)
    a = np.kron(ident_em, a_ph)
    sigma = np.kron(_emitter_op(levels, GROUND, EXCITON), ident_ph)
    sigma_f = None
    if levels == 3:
        sigma_f = np.kron(_emitter_op(levels, GROUND, FEEDER), ident_ph)
    projectors = {
        "ground": np.kron(_emitter_op(levels, GROUND, GROUND), ident_ph),
        "exciton": np.kron(_emitter_op(levels, EXCITON, EXCITON), ident_ph),
    }
    if levels == 3:
        projectors["feeder"] = np.kron(_emitter_op(levels, FEEDER, FEEDER), ident_ph)
    return StateSpace(
        emitter_levels=levels,
        n_max=p.n_max,
        dim=levels * nph,
        a=a,
        ad=a.conj().T,
        sigma=sigma,
        sigma_f=sigma_f,
        number=a.conj().T @ a,
        projectors=projectors,
    )


def hamiltonian(p: SystemParams, detuning: Detuning, space: StateSpace) -> np.ndarray:
    """Coupled-system Hamiltonian on ``space`` in rad/ns, rotating frame at omega_m.

    H = 2*pi * [ -dw * sigma†sigma + g * (a†sigma + sigma†a) ]; the photon
    term vanishes in this frame and the feeder level (if present) is set to
    zero energy since it only enters through incoherent channels.
    """
    sig, sig_d = space.sigma, space.sigma.conj().T
    return TWO_PI * (
        -detuning_GHz(detuning) * (sig_d @ sig)
        + p.g_GHz * (space.ad @ sig + sig_d @ space.a)
    )


def collapse_channels(p: SystemParams, space: StateSpace) -> list[CollapseChannel]:
    """Dissipative channels of the model on ``space``, in a fixed documented order."""
    sig = space.sigma
    sig_d = sig.conj().T
    channels = [
        CollapseChannel("cavity_loss", p.gamma_m_GHz, space.a),
        CollapseChannel("exciton_radiative", p.gamma_b_GHz, sig),
        CollapseChannel("pure_dephasing", 2.0 * p.gamma_dephasing_GHz, sig_d @ sig),
        CollapseChannel("exciton_pump", p.pump_GHz, sig_d),
        CollapseChannel("transfer", p.transfer_GHz, space.ad @ sig),
    ]
    if p.emitter_levels == 3:
        sig_f = space.sigma_f
        channels.append(CollapseChannel("feeder_pump", p.feeder_pump_GHz,
                                        sig_f.conj().T))
        channels.append(CollapseChannel("feeder_decay", p.feeder_decay_GHz,
                                        space.ad @ sig_f))
    return channels
