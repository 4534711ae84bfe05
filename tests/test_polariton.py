import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavqed import hilbert, polariton, specdiff
from cavqed.polariton import (
    SystemParams,
    WeakCouplingError,
    eigenmodes,
    purcell_lifetime,
    rabi_splitting,
    spectral_function,
)
from cavqed.units import Detuning

PAPER = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=0.015)
RES = Detuning.zero(942.5)


def test_resonance_point():
    m = eigenmodes(PAPER, RES)
    # desk values: sqrt(18.4^2 - 15.6^2/16) and (8.5+24.1)/4
    half_split = math.sqrt(18.4**2 - 15.6**2 / 16.0)
    assert m.splitting_GHz == pytest.approx(2 * half_split, rel=1e-9)
    assert m.hwhm_plus_GHz == pytest.approx(8.15, rel=1e-12)
    assert m.hwhm_minus_GHz == pytest.approx(8.15, rel=1e-12)
    mean = 0.5 * (PAPER.omega_m_GHz + PAPER.omega_m_GHz)
    assert m.omega_plus_GHz - mean == pytest.approx(half_split, rel=1e-9)


def test_uncoupled_limit_pairs_widths_with_own_lines():
    p = SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=0.015)
    for dw in (1383.7, 50.0, -50.0, -1383.7):
        d = Detuning.from_GHz(dw, 942.5)
        m = eigenmodes(p, d)
        omega_m = p.omega_m_GHz
        omega_x = omega_m - dw
        by_freq = {round(m.omega_plus_GHz, 6): m.hwhm_plus_GHz,
                   round(m.omega_minus_GHz, 6): m.hwhm_minus_GHz}
        assert by_freq[round(omega_m, 6)] == pytest.approx(24.1 / 2, rel=1e-12)
        assert by_freq[round(omega_x, 6)] == pytest.approx(8.5 / 2, rel=1e-12)


def test_far_detuned_asymptote():
    # At dw = +1383.7 GHz the upper branch is cavity-like (hwhm -> gamma_m/2)
    # and the lower exciton-like (hwhm -> gamma_x/2); each approached as 1/dw.
    m = eigenmodes(PAPER, Detuning.from_GHz(1383.7, 942.5))
    assert m.hwhm_plus_GHz == pytest.approx(12.05, rel=1e-3)
    assert m.hwhm_minus_GHz == pytest.approx(4.25, rel=1e-3)
    assert m.photon_fraction_plus > 0.99
    # dispersive residue ~ g^2/dw
    assert m.omega_plus_GHz - PAPER.omega_m_GHz == pytest.approx(
        18.4**2 / 1383.7, rel=0.05)


@given(st.floats(min_value=0.0, max_value=60.0),
       st.floats(min_value=0.1, max_value=40.0),
       st.floats(min_value=0.1, max_value=40.0),
       st.floats(min_value=-2000.0, max_value=2000.0))
def test_halfwidth_sum_rule(g, gx, gm, dw):
    p = SystemParams(g_GHz=g, gamma_x_GHz=gx, gamma_m_GHz=gm, gamma_b_GHz=0.0)
    m = eigenmodes(p, Detuning.from_GHz(dw, 942.5))
    assert m.hwhm_plus_GHz + m.hwhm_minus_GHz == pytest.approx((gx + gm) / 2.0, rel=1e-12)
    assert m.omega_plus_GHz >= m.omega_minus_GHz


def test_branch_continuity_weak_and_strong():
    for g in (2.0, 18.4):  # below and above the coupling threshold
        p = SystemParams(g_GHz=g, gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=0.015)
        dws = np.linspace(-80, 80, 3201)
        omegas = np.array([[eigenmodes(p, Detuning.from_GHz(d, 942.5)).omega_plus_GHz,
                            eigenmodes(p, Detuning.from_GHz(d, 942.5)).omega_minus_GHz]
                           for d in dws])
        step = dws[1] - dws[0]
        assert np.max(np.abs(np.diff(omegas, axis=0))) < 2.0 * step + 1e-9


def test_gap_minimized_at_resonance():
    dws = np.linspace(-60, 60, 2401)
    split, _ = rabi_splitting(PAPER)
    gaps = np.array([eigenmodes(PAPER, Detuning.from_GHz(d, 942.5)).splitting_GHz
                     for d in dws])
    assert gaps.min() == pytest.approx(split, rel=1e-6)
    assert np.all(gaps >= split - 1e-9)
    assert abs(dws[np.argmin(gaps)]) < 1.0


def test_rabi_splitting_values():
    split_GHz, split_nm = rabi_splitting(PAPER)
    assert split_GHz == pytest.approx(35.96, abs=0.01)
    assert split_nm == pytest.approx(0.107, abs=0.001)


def test_rabi_splitting_symmetric_linewidths():
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=10.0, gamma_m_GHz=10.0, gamma_b_GHz=0.0)
    split, _ = rabi_splitting(p)
    assert split == pytest.approx(2 * 18.4, rel=1e-12)


def test_rabi_splitting_weak_coupling_error():
    # gamma_x - gamma_m = 4g sits exactly on the criterion boundary
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=24.1 + 4 * 18.4, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.0)
    with pytest.raises(WeakCouplingError):
        rabi_splitting(p)


def test_rabi_splitting_strong_and_weak_cases():
    split, _ = rabi_splitting(SystemParams(g_GHz=20.7, gamma_x_GHz=8.5,
                                           gamma_m_GHz=24.1, gamma_b_GHz=0.015))
    assert split > 0
    for weak in (SystemParams(g_GHz=3.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                              gamma_b_GHz=0.015),
                 SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=8.5,
                              gamma_b_GHz=0.0)):
        with pytest.raises(WeakCouplingError):
            rabi_splitting(weak)


class TestSpectralFunction:
    def test_resonant_doublet_constant_pair(self):
        wm = PAPER.omega_m_GHz
        grid = np.linspace(wm - 60, wm + 60, 24001)
        s = spectral_function(grid, PAPER, RES)
        peaks = grid[1:-1][(s.intensity[1:-1] > s.intensity[:-2])
                           & (s.intensity[1:-1] >= s.intensity[2:])]
        assert peaks.size == 2
        # overlap pulls the summed-curve maxima ~0.09 GHz inside +-17.98
        assert sorted(peaks - wm) == pytest.approx([-17.98, 17.98], abs=0.15)
        # each component is a Lorentzian of FWHM 2*8.15 = 16.3
        m = eigenmodes(PAPER, RES)
        assert 2 * m.hwhm_plus_GHz == pytest.approx(16.3, rel=1e-9)

    def test_uncoupled_hopfield_single_line(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015)
        wm = p.omega_m_GHz
        grid = np.linspace(wm - 100, wm + 100, 8001)
        s = spectral_function(grid, p, Detuning.from_GHz(50.0, 942.5))
        peak = grid[np.argmax(s.intensity)]
        assert peak == pytest.approx(wm, abs=0.05)
        half = s.intensity >= 0.5
        fwhm = grid[half][-1] - grid[half][0]
        assert fwhm == pytest.approx(24.1, rel=0.01)

    def test_far_detuned_hopfield_is_cavity_dominated(self):
        d = Detuning.from_GHz(1383.7, 942.5)
        m = eigenmodes(PAPER, d)
        assert m.photon_fraction_plus / (m.photon_fraction_plus
                                         + m.photon_fraction_minus) > 0.99

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            spectral_function(np.array([]), PAPER, RES)
        with pytest.raises(ValueError):
            spectral_function(np.array([2.0, 1.0]), PAPER, RES)


class TestPurcell:
    P = SystemParams(g_GHz=20.7, gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=0.015)

    def test_detuned_value(self):
        r = purcell_lifetime(self.P, Detuning.from_nm(4.1, 942.5))
        # the decay rate into the cavity, gamma_SE = 1/(2 pi tau) - gamma_b
        gamma_se = 1.0 / (2 * math.pi * r.tau_ns) - self.P.gamma_b_GHz
        assert gamma_se == pytest.approx(5.39e-3, rel=0.002)
        assert r.tau_ns == pytest.approx(7.8, abs=0.05)

    def test_resonant_value(self):
        r = purcell_lifetime(self.P, RES)
        # gamma_SE = 4 g^2 / gamma_m at resonance
        gamma_tot = self.P.gamma_b_GHz + 4 * 20.7**2 / 24.1
        assert r.tau_ns == pytest.approx(1.0 / (2 * math.pi * gamma_tot), rel=1e-9)
        assert r.tau_ns == pytest.approx(2.2e-3, abs=0.5e-4)

    def test_uncoupled_background_only(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015)
        r = purcell_lifetime(p, Detuning.from_nm(2.0, 942.5))
        assert r.tau_ns == pytest.approx(10.61, abs=0.01)

    def test_even_and_monotonic_in_detuning(self):
        taus = []
        for dl in np.linspace(0.0, 4.1, 30):
            plus = purcell_lifetime(self.P, Detuning.from_nm(dl, 942.5)).tau_ns
            minus = purcell_lifetime(self.P, Detuning.from_nm(-dl, 942.5)).tau_ns
            assert plus == pytest.approx(minus, rel=1e-12)
            taus.append(plus)
        assert np.all(np.diff(taus) > 0)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(g_GHz=-1.0)
        with pytest.raises(ValueError):
            SystemParams(gamma_b_GHz=9.0, gamma_x_GHz=8.5)
        with pytest.raises(ValueError):
            SystemParams(n_max=0)
        with pytest.raises(ValueError):
            SystemParams(emitter_levels=4)

    def test_dephasing_decomposition(self):
        p = SystemParams(gamma_x_GHz=8.5, gamma_b_GHz=0.015)
        assert p.gamma_dephasing_GHz == pytest.approx((8.5 - 0.015) / 2)

    def test_with_detuning(self):
        p = SystemParams(lambda_m_nm=942.5)
        q = p.with_detuning(Detuning.from_nm(4.1, 942.5))
        assert q.lambda_x_nm == pytest.approx(946.6)


@pytest.mark.parametrize("call", [
    lambda d: eigenmodes(PAPER, d),
    lambda d: spectral_function(np.linspace(-100.0, 100.0, 11), PAPER, d),
    lambda d: purcell_lifetime(PAPER, d),
    lambda d: hilbert.hamiltonian(PAPER, d, hilbert.build_space(PAPER)),
    lambda d: specdiff.averaged_spectrum(PAPER, d, specdiff.TelegraphConfig(),
                                         np.linspace(-500.0, 500.0, 11), mode="fast"),
], ids=["eigenmodes", "spectral_function", "purcell_lifetime", "hamiltonian",
        "averaged_spectrum"])
def test_a_detuning_that_is_not_a_detuning_is_refused_by_name(call):
    with pytest.raises(ValueError, match="^detuning must be a Detuning, got None$"):
        call(None)
