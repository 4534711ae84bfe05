"""Unit conversions shared by every layer of the toolkit.

Canonical conventions:

* rates and linewidths are ordinary frequencies in GHz, FWHM for linewidths
  (dynamical generators multiply by 2*pi internally),
* wavelengths in nm, energies in micro-eV, times in ns,
* lifetimes follow tau = 1/(2*pi*gamma_FWHM).

Keep only primitive constants and pure functions here; this module must be
importable from anywhere without side effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT_NM_GHZ",
    "PLANCK_UEV_PER_GHZ",
    "FWHM_TO_SIGMA",
    "Detuning",
    "detuning_GHz",
    "energy_to_frequency",
    "wavelength_to_frequency",
    "detuning_to_frequency",
    "frequency_to_detuning",
    "lifetime_from_fwhm",
    "philox",
]

# c in nm*GHz (= nm/ns); CODATA exact.
SPEED_OF_LIGHT_NM_GHZ = 2.99792458e8
# h in micro-eV per GHz; CODATA exact (6.62607015e-34 J*s / e).
PLANCK_UEV_PER_GHZ = 4.135667696
# Gaussian standard deviation per unit FWHM, 1/(2 sqrt(2 ln 2)).
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, stream); each consumer owns a stream word."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def energy_to_frequency(e_ueV: float) -> float:
    """Photon energy in micro-eV to ordinary frequency in GHz (E = h*nu)."""
    return e_ueV / PLANCK_UEV_PER_GHZ


def wavelength_to_frequency(lambda_nm: float) -> float:
    """Vacuum wavelength in nm to ordinary frequency in GHz."""
    if lambda_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {lambda_nm}")
    return SPEED_OF_LIGHT_NM_GHZ / lambda_nm


def detuning_to_frequency(dl_nm: float, lambda_ref_nm: float) -> float:
    """First-order conversion of a wavelength offset to a frequency offset.

    d_nu = c * d_lambda / lambda_ref**2.  Positive for a red wavelength
    offset, i.e. the sign convention where both the wavelength and the
    frequency detuning are positive when the cavity sits blue of the exciton.
    """
    if lambda_ref_nm <= 0:
        raise ValueError(f"reference wavelength must be positive, got {lambda_ref_nm}")
    return SPEED_OF_LIGHT_NM_GHZ * dl_nm / lambda_ref_nm**2


def frequency_to_detuning(dw_GHz: float, lambda_ref_nm: float) -> float:
    """Inverse of :func:`detuning_to_frequency` at the same reference."""
    if lambda_ref_nm <= 0:
        raise ValueError(f"reference wavelength must be positive, got {lambda_ref_nm}")
    return dw_GHz * lambda_ref_nm**2 / SPEED_OF_LIGHT_NM_GHZ


def lifetime_from_fwhm(gamma_GHz: float) -> float:
    """Lifetime in ns of a state whose FWHM linewidth is ``gamma_GHz``."""
    if gamma_GHz <= 0:
        raise ValueError(f"rate must be positive, got {gamma_GHz}")
    return 1.0 / (2.0 * math.pi * gamma_GHz)


@dataclass(frozen=True)
class Detuning:
    """Exciton-cavity spectral offset: the frequency detuning and its reference.

    ``dw_GHz`` is the frequency detuning omega_m - omega_x, the one number
    every physics function reads; ``dl_nm`` is the wavelength detuning
    lambda_x - lambda_m that it gives at ``lambda_ref_nm`` by the first-order
    relation.  Both are positive when the cavity is blue of the exciton.
    Construct through :meth:`from_nm`, :meth:`from_GHz` or :meth:`zero`.
    """

    dw_GHz: float
    lambda_ref_nm: float

    def __post_init__(self):
        if not (math.isfinite(self.dw_GHz) and 0 < self.lambda_ref_nm < math.inf):
            raise ValueError(f"detuning must be finite at a positive, finite reference, "
                             f"got {self.dw_GHz} GHz at {self.lambda_ref_nm} nm")

    @property
    def dl_nm(self) -> float:
        return frequency_to_detuning(self.dw_GHz, self.lambda_ref_nm)

    @classmethod
    def from_nm(cls, dl_nm: float, lambda_ref_nm: float) -> "Detuning":
        return cls(detuning_to_frequency(dl_nm, lambda_ref_nm), lambda_ref_nm)

    @classmethod
    def from_GHz(cls, dw_GHz: float, lambda_ref_nm: float) -> "Detuning":
        return cls(dw_GHz, lambda_ref_nm)

    @classmethod
    def zero(cls, lambda_ref_nm: float) -> "Detuning":
        return cls(0.0, lambda_ref_nm)


def detuning_GHz(detuning: Detuning) -> float:
    """The frequency detuning ``dw_GHz``; anything but a :class:`Detuning` is refused."""
    if not isinstance(detuning, Detuning):
        raise ValueError(f"detuning must be a Detuning, got {detuning!r}")
    return detuning.dw_GHz
