"""Quasi-static spectral-diffusion model of the emission triplet.

A slow charging process toggles the exciton between its nominal energy and a
far-shifted one, much slower than the emission itself, so the recorded
spectrum is the dwell-weighted mixture of the two regimes: the
strong-coupling doublet (resonant dwell) plus the bare cavity line that the
far-detuned regime leaves behind.  Each regime's spectrum is normalized to
unit area on the evaluation grid before mixing, so the resonant dwell
fraction f directly sets the weight of each regime in the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .polariton import Spectrum, SystemParams, eigenmodes, spectral_function
from .units import Detuning

__all__ = ["TelegraphConfig", "averaged_spectrum"]


@dataclass(frozen=True)
class TelegraphConfig:
    """Two-state charging model: dwell fraction and exciton shift.

    ``resonant_fraction`` is the fraction of time spent at the nominal
    detuning; ``detuned_offset_GHz`` is the exciton frequency shift in the
    charged state (None picks -20 g at use, pushing the exciton red).  The
    switching is assumed quasi-static: slow against emission, fast against
    the acquisition.
    """

    resonant_fraction: float = 0.55
    detuned_offset_GHz: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.resonant_fraction <= 1.0:
            raise ValueError("resonant_fraction must lie in [0, 1]")
        if self.detuned_offset_GHz is not None and not math.isfinite(self.detuned_offset_GHz):
            raise ValueError("detuned_offset_GHz must be finite")


def _shifted_detuning(p: SystemParams, detuning: Detuning,
                      cfg: TelegraphConfig) -> Detuning:
    shift = cfg.detuned_offset_GHz
    if shift is None:
        shift = -20.0 * p.g_GHz
    shifted = Detuning.from_GHz(detuning.dw_GHz - shift, detuning.lambda_ref_nm)
    if p.g_GHz > 0 and abs(shifted.dw_GHz) <= 5.0 * p.g_GHz:
        raise ValueError(
            f"charged-state detuning {shifted.dw_GHz:.1f} GHz is not far "
            f"compared to g = {p.g_GHz} GHz; need |detuning| > 5 g"
        )
    return shifted


def _unit_area(s: Spectrum) -> np.ndarray:
    area = s.area()
    if area <= 0:
        raise ValueError("regime spectrum has non-positive area on the grid")
    return s.intensity / area


def averaged_spectrum(p: SystemParams, detuning: Detuning,
                      cfg: TelegraphConfig, grid_GHz: np.ndarray,
                      mode: str = "master") -> Spectrum:
    """Dwell-weighted mixture spectrum on an ordinary-frequency grid.

    ``mode`` selects the regime spectra: ``"master"`` uses the
    master-equation emission spectrum, ``"fast"`` the closed-form
    photon-fraction-weighted spectral function.  The result carries the two
    regime terms in ``components`` ("resonant", "detuned"); the grid must
    cover the doublet and the cavity line or the mixture is refused.
    """
    grid = np.asarray(grid_GHz, dtype=float)
    shifted = _shifted_detuning(p, detuning, cfg)
    modes_res = eigenmodes(p, detuning)
    needed = [modes_res.omega_minus_GHz, modes_res.omega_plus_GHz, p.omega_m_GHz]
    margin = p.gamma_m_GHz
    if min(needed) - margin < grid[0] or max(needed) + margin > grid[-1]:
        raise ValueError(
            "grid does not cover all three peaks: need "
            f"[{min(needed) - margin:.1f}, {max(needed) + margin:.1f}] GHz"
        )
    if mode == "master":
        s_res = dynamics.emission_spectrum(p, detuning, grid)
        s_det = dynamics.emission_spectrum(p, shifted, grid)
    elif mode == "fast":
        s_res = spectral_function(grid, p, detuning)
        s_det = spectral_function(grid, p, shifted)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    f = cfg.resonant_fraction
    res = f * _unit_area(s_res)
    det = (1.0 - f) * _unit_area(s_det)
    return Spectrum(grid, res + det,
                    components={"resonant": res, "detuned": det})
