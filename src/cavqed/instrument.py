"""Measurement-chain emulation between the physics and the analysis.

Covers the three effects the optical setup imposes on ideal data: Gaussian
spectrometer resolution applied to spectra, Gaussian timing jitter of the
single-photon detectors, and binomial detection loss.  Dark counts,
afterpulsing and dead time are deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polariton import Spectrum
from .trajectories import ClickStream
from .units import FWHM_TO_SIGMA, philox

__all__ = ["InstrumentConfig", "convolve_spectrum", "jitter_and_thin"]


@dataclass(frozen=True)
class InstrumentConfig:
    """Spectrometer and detector response parameters."""

    spectral_resolution_pm: float = 21.0
    apd_irf_ps: float = 70.0       # Gaussian FWHM; the low-jitter APD choice
    efficiency: float = 1.0        # per-click survival probability

    def __post_init__(self):
        if self.spectral_resolution_pm < 0 or self.apd_irf_ps < 0:
            raise ValueError("resolutions must be non-negative")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")


def convolve_spectrum(s: Spectrum, cfg: InstrumentConfig) -> Spectrum:
    """Blur a wavelength spectrum with the spectrometer's Gaussian response.

    Requires a uniform wavelength grid sampled at least four times per
    resolution element; total area on the grid is preserved (to 1e-6 of
    itself for spectra that vanish toward the grid edges).
    """
    if cfg.spectral_resolution_pm == 0:
        return s
    spec = s.to_wavelength()
    dx = np.diff(spec.axis)
    step = float(dx[0])
    if not np.allclose(dx, step, rtol=1e-6, atol=0):
        raise ValueError("convolution needs a uniform wavelength grid")
    res_nm = cfg.spectral_resolution_pm * 1e-3
    if step > res_nm / 4.0:
        raise ValueError(
            f"grid step {step:.4g} nm under-resolves the {res_nm:.4g} nm "
            "instrument response; need at least 4 samples per FWHM"
        )
    sigma = res_nm * FWHM_TO_SIGMA
    half = int(math.ceil(5.0 * sigma / step))
    offsets = step * np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()

    def blur(y: np.ndarray) -> np.ndarray:
        return np.convolve(y, kernel, mode="same")

    out = blur(spec.intensity)
    comps = {k: blur(v) for k, v in spec.components.items()}
    return Spectrum(spec.axis.copy(), out, "wavelength_nm", comps)


def jitter_and_thin(clicks: ClickStream, cfg: InstrumentConfig,
                    seed: int) -> ClickStream:
    """Apply detection loss and timing jitter to a click stream.

    Each click survives with probability ``efficiency``; surviving times are
    perturbed by Gaussian jitter with the configured APD FWHM and re-sorted.
    Deterministic for a fixed seed.
    """
    rng = philox(seed, 0xA9D)
    n = len(clicks)
    keep = rng.random(n) < cfg.efficiency if cfg.efficiency < 1.0 else np.ones(n, bool)
    times = clicks.times_ns[keep]
    codes = clicks.channel_codes[keep]
    if cfg.apd_irf_ps > 0:
        sigma_ns = cfg.apd_irf_ps * 1e-3 * FWHM_TO_SIGMA
        times = times + rng.normal(0.0, sigma_ns, size=times.size)
        order = np.argsort(times, kind="stable")
        times, codes = times[order], codes[order]
    return ClickStream(times, codes, clicks.labels, clicks.duration_ns)
