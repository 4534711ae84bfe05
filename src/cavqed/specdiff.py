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

from dataclasses import dataclass

import numpy as np

from . import dynamics, fitkit
from .polariton import Spectrum, SystemParams, eigenmodes, spectral_function
from .units import Detuning

__all__ = [
    "TelegraphConfig",
    "averaged_spectrum",
    "fit_triplet",
    "fraction_for_central_area",
]


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


def averaged_spectrum(p: SystemParams, detuning: Detuning | None,
                      cfg: TelegraphConfig, grid_GHz: np.ndarray,
                      mode: str = "master") -> Spectrum:
    """Dwell-weighted mixture spectrum on an ordinary-frequency grid.

    ``mode`` selects the regime spectra: ``"master"`` uses the
    master-equation emission spectrum, ``"fast"`` the closed-form
    photon-fraction-weighted spectral function.  The result carries the two
    regime terms in ``components`` ("resonant", "detuned"); the grid must
    cover the doublet and the cavity line or the mixture is refused.
    """
    if detuning is None:
        detuning = p.detuning()
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


def fit_triplet(s: Spectrum, gaussian_fwhm: float = 0.0) -> fitkit.FitResult:
    """Three-Lorentzian decomposition of a triplet spectrum.

    ``gaussian_fwhm`` (same units as the spectrum axis) deconvolves a known
    instrument response; peaks are reported sorted by center in ``derived``
    along with their area fractions.
    """
    result = fitkit.fit_lorentzians(s, 3, gaussian_fwhm=gaussian_fwhm)
    order = np.argsort([result.params[f"center_{k}"] for k in (1, 2, 3)])
    for rank, idx in enumerate(order, start=1):
        k = idx + 1
        result.derived[f"sorted_center_{rank}"] = result.params[f"center_{k}"]
        result.derived[f"sorted_fwhm_{rank}"] = result.params[f"fwhm_{k}"]
        result.derived[f"sorted_area_fraction_{rank}"] = result.derived[f"area_fraction_{k}"]
    return result


def fraction_for_central_area(target_fraction: float, p: SystemParams,
                              detuning: Detuning | None, grid_GHz: np.ndarray,
                              cfg: TelegraphConfig | None = None,
                              mode: str = "fast") -> float:
    """Dwell fraction f whose mixture puts ``target_fraction`` of the area
    in the central (cavity) component.

    The mixture is linear in f and each regime is unit-area, so the central
    share is (1 - f) times the detuned regime's own central share; one
    reference mixture pins that constant.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target fraction must lie strictly between 0 and 1")
    cfg = cfg or TelegraphConfig()
    ref = TelegraphConfig(resonant_fraction=0.5,
                          detuned_offset_GHz=cfg.detuned_offset_GHz)
    s = averaged_spectrum(p, detuning, ref, grid_GHz, mode=mode)
    fit = fit_triplet(s)
    central_share = fit.derived["sorted_area_fraction_2"]
    q = central_share / (1.0 - ref.resonant_fraction)
    f = 1.0 - target_fraction / q
    if not 0.0 <= f <= 1.0:
        raise ValueError(
            f"target {target_fraction} unreachable: detuned regime carries "
            f"only {q:.3f} of its area in the central line"
        )
    return f
