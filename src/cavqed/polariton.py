"""Closed-form theory of the coupled exciton-cavity system.

The coupled modes are described by the non-Hermitian two-by-two generator

    M = [[omega_x - i*gamma_x/2,  g],
         [g,  omega_m - i*gamma_m/2]]        (ordinary frequency, GHz)

whose complex eigenvalues give the polariton resonance frequencies (real
part) and half-widths (minus the imaginary part).  Everything here is pure
and cheap; the master-equation layer in :mod:`cavqed.dynamics` uses it as an
independent oracle and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .units import (
    SPEED_OF_LIGHT_NM_GHZ,
    Detuning,
    frequency_to_detuning,
    lifetime_from_fwhm,
    wavelength_to_frequency,
)

__all__ = [
    "SystemParams",
    "PolaritonPair",
    "Spectrum",
    "LifetimeBudget",
    "WeakCouplingError",
    "eigenmodes",
    "rabi_splitting",
    "spectral_function",
    "purcell_lifetime",
]


class WeakCouplingError(ValueError):
    """Raised when an operation requires the strong-coupling regime."""


@dataclass(frozen=True)
class SystemParams:
    """All physical rates and frequencies of the coupled system.

    Linewidths are FWHM in ordinary-frequency GHz.  ``gamma_x_GHz`` is the
    total exciton linewidth; the part not accounted for by the radiative
    background rate ``gamma_b_GHz`` is attributed to pure dephasing at rate
    ``(gamma_x - gamma_b)/2``.  ``transfer_GHz`` is the phenomenological
    incoherent exciton-to-cavity feeding rate; the optional third emitter
    level ("feeder") pumps the cavity independently of the exciton and is
    active only for ``emitter_levels == 3``.

    The detuning is never read off the wavelengths: every function that
    needs it takes a :class:`~cavqed.units.Detuning`, and
    :meth:`with_detuning` moves ``lambda_x_nm`` to match one.
    """

    lambda_x_nm: float = 942.5
    lambda_m_nm: float = 942.5
    g_GHz: float = 18.4
    gamma_x_GHz: float = 8.5
    gamma_m_GHz: float = 24.1
    gamma_b_GHz: float = 0.015
    pump_GHz: float = 0.01
    transfer_GHz: float = 0.0
    n_max: int = 5
    emitter_levels: int = 2
    feeder_pump_GHz: float = 0.0
    feeder_decay_GHz: float = 0.0

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (0 < self.lambda_x_nm < math.inf and 0 < self.lambda_m_nm < math.inf):
            raise ValueError("wavelengths must be positive and finite")
        for name in ("g_GHz", "gamma_x_GHz", "gamma_m_GHz", "gamma_b_GHz",
                     "pump_GHz", "transfer_GHz", "feeder_pump_GHz",
                     "feeder_decay_GHz"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.gamma_b_GHz > self.gamma_x_GHz:
            raise ValueError("background rate cannot exceed the total exciton linewidth")
        if not self.n_max >= 1:
            raise ValueError("n_max must be at least 1")
        if self.emitter_levels not in (2, 3):
            raise ValueError("emitter_levels must be 2 or 3")

    @property
    def gamma_dephasing_GHz(self) -> float:
        """Pure dephasing rate implied by gamma_x = gamma_b + 2*gamma_d."""
        return 0.5 * (self.gamma_x_GHz - self.gamma_b_GHz)

    @property
    def omega_m_GHz(self) -> float:
        return wavelength_to_frequency(self.lambda_m_nm)

    def with_detuning(self, detuning: Detuning) -> "SystemParams":
        """Copy with the exciton wavelength moved to realize ``detuning``."""
        return replace(self, lambda_x_nm=self.lambda_m_nm + detuning.dl_nm)


@dataclass(frozen=True)
class PolaritonPair:
    """Resonance frequencies and half-widths of the two polariton branches."""

    omega_plus_GHz: float
    omega_minus_GHz: float
    hwhm_plus_GHz: float
    hwhm_minus_GHz: float
    photon_fraction_plus: float
    photon_fraction_minus: float

    @property
    def splitting_GHz(self) -> float:
        return self.omega_plus_GHz - self.omega_minus_GHz


@dataclass
class Spectrum:
    """Sampled intensity versus frequency (GHz) or wavelength (nm)."""

    axis: np.ndarray
    intensity: np.ndarray
    kind: str = "frequency_GHz"
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.axis.ndim != 1 or self.axis.size == 0:
            raise ValueError("spectrum axis must be a non-empty 1-D array")
        if self.axis.shape != self.intensity.shape:
            raise ValueError("axis and intensity shapes differ")
        if np.any(np.diff(self.axis) <= 0):
            raise ValueError("spectrum axis must be strictly increasing")
        if self.kind not in ("frequency_GHz", "wavelength_nm"):
            raise ValueError(f"unknown axis kind {self.kind!r}")

    def area(self) -> float:
        return float(np.trapezoid(self.intensity, self.axis))

    def to_wavelength(self) -> "Spectrum":
        """Convert a frequency-axis spectrum to wavelength (intensity per axis sample)."""
        if self.kind == "wavelength_nm":
            return self
        lam = (wavelength_to_frequency(1.0) / self.axis)[::-1]
        comps = {k: v[::-1].copy() for k, v in self.components.items()}
        return Spectrum(lam, self.intensity[::-1].copy(), "wavelength_nm", comps)


@dataclass(frozen=True)
class LifetimeBudget:
    """Exciton lifetime and its decay rate into the cavity, gamma_SE."""

    tau_ns: float
    gamma_cavity_GHz: float


def _complex_eigenvalues(lambda_m_nm, dw_GHz, g_GHz, gamma_x_GHz, gamma_m_GHz):
    """Eigenvalues of the two-by-two generator, ordered by real part, then -imag.

    Returned as complex ordinary frequencies omega - i*hwhm in GHz, with the
    cavity at ``lambda_m_nm`` and the exciton at omega_m - dw; the arguments
    broadcast.  Principal square root with post-hoc ordering keeps the
    branches continuous through the anti-crossing.  The square under the root
    is spelled out in reals, because numpy's complex multiply can round
    differently from scalar complex arithmetic; this way a sweep and a
    point-by-point evaluation agree bit for bit.
    """
    lambda_m_nm = np.asarray(lambda_m_nm, dtype=float)
    if np.any(lambda_m_nm <= 0):
        raise ValueError("cavity wavelength must be positive")
    omega_m = SPEED_OF_LIGHT_NM_GHZ / lambda_m_nm
    omega_x = omega_m - dw_GHz
    mean = 0.5 * (omega_x + omega_m) - 0.25j * (gamma_x_GHz + gamma_m_GHz)
    half_diff = 0.5 * dw_GHz - 0.25j * (gamma_m_GHz - gamma_x_GHz)
    re, im = half_diff.real, half_diff.imag
    root = np.sqrt(g_GHz**2 + (re * re - im * im) + 1j * (re * im + im * re))
    lam_a, lam_b = mean + root, mean - root
    swap = (lam_a.real < lam_b.real) | ((lam_a.real == lam_b.real)
                                        & (lam_a.imag > lam_b.imag))
    return np.where(swap, lam_b, lam_a), np.where(swap, lam_a, lam_b), omega_x, omega_m


def _photon_fraction(lam: complex, omega_x: float, omega_m: float,
                     p: SystemParams) -> float:
    """Squared photon amplitude of the eigenvector belonging to ``lam``."""
    # Eigenvector of [[a, g], [g, b]] for eigenvalue lam is (g, lam - a).
    a = omega_x - 0.5j * p.gamma_x_GHz
    w = abs(lam - a) ** 2
    denom = p.g_GHz**2 + w
    if denom == 0.0:
        # Uncoupled (or fully degenerate) limit: classify by frequency.
        return 1.0 if abs(lam.real - omega_m) <= abs(lam.real - omega_x) else 0.0
    return w / denom


def eigenmodes(p: SystemParams, detuning: Detuning) -> PolaritonPair:
    """Polariton resonance frequencies and half-widths at a given detuning.

    The half-widths always sum to (gamma_x + gamma_m)/4 * 2 branch-wise, i.e.
    hwhm_plus + hwhm_minus = (gamma_x + gamma_m)/2 independent of detuning.
    """
    lam_p, lam_m, omega_x, omega_m = (v.item() for v in _complex_eigenvalues(
        p.lambda_m_nm, detuning.dw_GHz, p.g_GHz, p.gamma_x_GHz, p.gamma_m_GHz))
    return PolaritonPair(
        omega_plus_GHz=lam_p.real,
        omega_minus_GHz=lam_m.real,
        hwhm_plus_GHz=-lam_p.imag,
        hwhm_minus_GHz=-lam_m.imag,
        photon_fraction_plus=_photon_fraction(lam_p, omega_x, omega_m, p),
        photon_fraction_minus=_photon_fraction(lam_m, omega_x, omega_m, p),
    )


def rabi_splitting(p: SystemParams) -> tuple[float, float]:
    """Minimum polariton splitting, returned in GHz and in nm at lambda_m.

    Raises :class:`WeakCouplingError` outside the strong-coupling regime,
    where the square root turns imaginary and no real splitting exists.
    """
    radicand = p.g_GHz**2 - (p.gamma_x_GHz - p.gamma_m_GHz) ** 2 / 16.0
    if radicand <= 0:
        raise WeakCouplingError(
            "no real splitting: weak-coupling parameters "
            f"(g={p.g_GHz} GHz, gamma_x={p.gamma_x_GHz} GHz, gamma_m={p.gamma_m_GHz} GHz)"
        )
    split_GHz = 2.0 * math.sqrt(radicand)
    split_nm = frequency_to_detuning(split_GHz, p.lambda_m_nm)
    return split_GHz, split_nm


def spectral_function(grid_GHz: np.ndarray, p: SystemParams,
                      detuning: Detuning) -> Spectrum:
    """Two-Lorentzian polariton spectrum on an ordinary-frequency grid.

    Each branch is weighted by the squared photon fraction of its
    eigenvector, which is what a photon detector sees.  Output is normalized
    to unit peak.
    """
    grid = np.asarray(grid_GHz, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("frequency grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("frequency grid must be sorted ascending")
    modes = eigenmodes(p, detuning)
    a_plus, a_minus = modes.photon_fraction_plus, modes.photon_fraction_minus
    comp_plus = a_plus / ((grid - modes.omega_plus_GHz) ** 2 + modes.hwhm_plus_GHz**2)
    comp_minus = a_minus / ((grid - modes.omega_minus_GHz) ** 2 + modes.hwhm_minus_GHz**2)
    total = comp_plus + comp_minus
    peak = total.max()
    if peak <= 0:
        raise ValueError("spectral function vanished on the grid")
    return Spectrum(
        grid, total / peak,
        components={"plus": comp_plus / peak, "minus": comp_minus / peak},
    )


def purcell_lifetime(p: SystemParams, detuning: Detuning) -> LifetimeBudget:
    """Detuning-dependent exciton lifetime from the Lorentzian emission law.

    The total decay rate is gamma_b + gamma_SE with
    gamma_SE = gamma_m * g**2 / (dw**2 + (gamma_m/2)**2); the lifetime uses
    the FWHM convention tau = 1/(2*pi*gamma_tot).  This is the paper's law,
    the gamma_x << gamma_m limit of the master equation: pure dephasing
    widens the Lorentzian to gamma_m + gamma_x, so at the default gamma_x
    the master-equation lifetime is shorter off resonance.
    """
    if p.gamma_m_GHz <= 0:
        raise ValueError("purcell_lifetime requires a lossy cavity (gamma_m > 0)")
    dw = detuning.dw_GHz
    gamma_se = p.gamma_m_GHz * p.g_GHz**2 / (dw**2 + (p.gamma_m_GHz / 2.0) ** 2)
    return LifetimeBudget(
        tau_ns=lifetime_from_fwhm(p.gamma_b_GHz + gamma_se),
        gamma_cavity_GHz=gamma_se,
    )
