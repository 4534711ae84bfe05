import numpy as np
import pytest

from cavqed import specdiff
from cavqed.polariton import SystemParams, rabi_splitting
from cavqed.specdiff import TelegraphConfig, averaged_spectrum, fit_triplet
from cavqed.units import Detuning

PARAMS = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                      gamma_b_GHz=0.015, pump_GHz=0.01, transfer_GHz=0.05,
                      n_max=3)
RES = Detuning.zero(942.5)
SHIFT = TelegraphConfig(resonant_fraction=0.55, detuned_offset_GHz=-1500.0)


def _grid(p, pad=160.0, step=0.35):
    wm = p.omega_m_GHz
    return np.arange(wm - pad, wm + pad, step)


def test_pure_resonant_fraction_is_doublet():
    cfg = TelegraphConfig(resonant_fraction=1.0, detuned_offset_GHz=-1500.0)
    grid = _grid(PARAMS)
    s = averaged_spectrum(PARAMS, RES, cfg, grid, mode="fast")
    assert np.max(np.abs(s.components["detuned"])) == 0.0
    interior = (s.intensity[1:-1] > s.intensity[:-2]) & \
               (s.intensity[1:-1] >= s.intensity[2:])
    peaks = grid[1:-1][interior & (s.intensity[1:-1] > 0.2 * s.intensity.max())]
    assert peaks.size == 2


def test_mixture_linearity():
    grid = _grid(PARAMS)
    terms = {}
    for f in (0.0, 0.3, 1.0):
        cfg = TelegraphConfig(resonant_fraction=f, detuned_offset_GHz=-1500.0)
        terms[f] = averaged_spectrum(PARAMS, RES, cfg, grid, mode="fast")
    combo = 0.3 * terms[1.0].intensity + 0.7 * terms[0.0].intensity
    assert np.max(np.abs(terms[0.3].intensity - combo)) < 1e-12
    # total area is the dwell-weighted sum of unit areas
    assert terms[0.3].area() == pytest.approx(
        0.3 * terms[1.0].area() + 0.7 * terms[0.0].area(), rel=1e-9)


def test_central_component_independent_of_dwell_fraction():
    grid = _grid(PARAMS)
    stats = []
    for f in (0.25, 0.55, 0.8):
        cfg = TelegraphConfig(resonant_fraction=f, detuned_offset_GHz=-1500.0)
        s = averaged_spectrum(PARAMS, RES, cfg, grid, mode="fast")
        det_term = s.components["detuned"] / (1.0 - f)
        stats.append(det_term)
    assert np.max(np.abs(stats[0] - stats[1])) < 1e-12
    assert np.max(np.abs(stats[1] - stats[2])) < 1e-12


def test_triplet_central_component_is_bare_cavity_line():
    grid = _grid(PARAMS)
    s = averaged_spectrum(PARAMS, RES, SHIFT, grid, mode="fast")
    fit = fit_triplet(s)
    wm = PARAMS.omega_m_GHz
    # center within the dispersive residue g^2/|shifted detuning| of omega_m
    assert fit.derived["sorted_center_2"] == pytest.approx(wm, abs=0.4)
    assert fit.derived["sorted_fwhm_2"] == pytest.approx(24.1, rel=0.05)
    # outer components: the polariton doublet with width ~(gx+gm)/2
    split, _ = rabi_splitting(PARAMS)
    gap = fit.derived["sorted_center_3"] - fit.derived["sorted_center_1"]
    assert gap == pytest.approx(split, rel=0.02)
    assert fit.derived["sorted_fwhm_1"] == pytest.approx(16.3, rel=0.05)


def test_area_framework_recovers_dwell_fraction():
    grid = _grid(PARAMS)
    target = 0.45
    f = specdiff.fraction_for_central_area(target, PARAMS, RES, grid,
                                           cfg=SHIFT, mode="fast")
    cfg = TelegraphConfig(resonant_fraction=f, detuned_offset_GHz=-1500.0)
    s = averaged_spectrum(PARAMS, RES, cfg, grid, mode="fast")
    fit = fit_triplet(s)
    assert fit.derived["sorted_area_fraction_2"] == pytest.approx(target, abs=0.02)
    # the 45% constraint pins f near 1 - 0.45
    assert f == pytest.approx(0.55, abs=0.03)


def test_power_independence_of_central_feature():
    # the relative height of the central feature does not move with pump
    grid = _grid(PARAMS, pad=120.0, step=0.5)
    fracs = []
    for pump in (0.001, 0.05):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=pump, transfer_GHz=0.05,
                         n_max=3)
        s = averaged_spectrum(p, RES, SHIFT, grid, mode="master")
        fit = fit_triplet(s)
        fracs.append(fit.derived["sorted_area_fraction_2"])
    assert fracs[0] == pytest.approx(fracs[1], rel=0.05)


def test_grid_must_cover_triplet():
    wm = PARAMS.omega_m_GHz
    grid = np.arange(wm - 10, wm + 10, 0.2)
    with pytest.raises(ValueError, match="cover"):
        averaged_spectrum(PARAMS, RES, SHIFT, grid, mode="fast")


def test_far_state_enforced():
    cfg = TelegraphConfig(resonant_fraction=0.5, detuned_offset_GHz=-3 * 18.4)
    with pytest.raises(ValueError, match="not far"):
        averaged_spectrum(PARAMS, RES, cfg, _grid(PARAMS), mode="fast")


def test_config_validation():
    with pytest.raises(ValueError):
        TelegraphConfig(resonant_fraction=1.2)


def test_default_shift_is_minus_twenty_g():
    shifted = specdiff._shifted_detuning(PARAMS, RES, TelegraphConfig())
    assert shifted.dw_GHz == pytest.approx(20 * 18.4)
