import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from cavqed import dynamics, fitkit, hilbert, polariton, specdiff, trajectories
from cavqed.dynamics import (
    NumericalError,
    emission_spectrum,
    evolve,
    expectation,
    g2_auto,
    g2_cross,
    steady_state,
)
from cavqed.polariton import SystemParams, eigenmodes, purcell_lifetime, spectral_function
from cavqed.units import Detuning

TWO_PI = 2 * math.pi
RES = Detuning.zero(942.5)

PAPER = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.015, pump_GHz=0.01, n_max=5)
FEEDER = SystemParams(lambda_x_nm=946.6, g_GHz=20.7, gamma_x_GHz=0.015,
                      gamma_m_GHz=24.1, gamma_b_GHz=0.015, pump_GHz=0.002,
                      transfer_GHz=0.05, n_max=5, emitter_levels=3,
                      feeder_pump_GHz=0.01, feeder_decay_GHz=0.1224)


def _pure(space, level, n):
    k = np.eye(space.dim, dtype=complex)[space.index(level, n)]
    return np.outer(k, k.conj())


def _local_maxima(y, x):
    i = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1
    return x[i]


def _full_generator(model):
    """The whole D²×D² Lindblad generator from kron products: the reference
    that the model's blocks, assembled without it, are checked against."""
    h, ident = model.h_ang, np.eye(model.space.dim, dtype=complex)
    gen = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for c in model.channels:
        if c.rate_GHz > 0:
            j = c.jump_operator
            cdc = j.conj().T @ j
            gen += np.kron(j, j.conj())
            gen -= 0.5 * (np.kron(cdc, ident) + np.kron(ident, cdc.T))
    return gen


BLOCK_POINTS = [(SystemParams(n_max=5), 0.0),
                (SystemParams(n_max=5), 4.1),
                (SystemParams(n_max=3), 0.2),
                (FEEDER, 4.1)]
# Parameter sets that trajectories unravel: acceptance tests 3 (pulsed
# lifetime), 5 (sets B and C, CW near and far) and 6ii (single photon).
CLICK_POINTS = [(SystemParams(g_GHz=20.7, pump_GHz=0.0, n_max=3), 1.0),
                (SystemParams(g_GHz=18.4, pump_GHz=0.05, n_max=2), 0.2),
                (SystemParams(g_GHz=20.7, gamma_b_GHz=0.015, pump_GHz=0.01,
                              transfer_GHz=0.05, n_max=1), 4.1),
                (SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_b_GHz=0.2,
                              pump_GHz=0.0, n_max=1), 0.0)]


@pytest.mark.parametrize("p,dl_nm", BLOCK_POINTS + CLICK_POINTS)
def test_blocks_equal_kron_reference(p, dl_nm):
    # each block is assembled from gathered pieces of H and the jump
    # operators in the same sequence of adds as the kron products, so it is
    # the reference's block exactly, and so is trajectories' no-click L0
    det = Detuning.from_nm(dl_nm, 942.5)
    p = p.with_detuning(det)
    model = dynamics.build_model(p, det)
    full = _full_generator(model)
    for k in np.unique(model.orders):
        b = model.block(int(k))
        assert np.array_equal(b.gen, full[np.ix_(b.idx, b.idx)])
    engine = trajectories._Engine(dynamics.build_model(p, det))
    ops = {c.label: c.jump_operator for c in model.channels}
    detected = [ops[label] for label in trajectories.DETECTED]
    full0 = full - sum(np.kron(j, j.conj()) for j in detected)
    b0 = engine.block
    assert np.array_equal(b0.gen, full0[np.ix_(b0.idx, b0.idx)])


@pytest.mark.parametrize("p,dl_nm", BLOCK_POINTS)
def test_generator_block_diagonal_in_coherence_order(p, dl_nm):
    # H and every channel shift N = a†a + |x><x| + |f><f| by a fixed amount,
    # so L never mixes entries |i><j| of different order N_i - N_j
    det = Detuning.from_nm(dl_nm, 942.5)
    model = dynamics.build_model(p.with_detuning(det), det)
    sp = model.space
    n = np.empty(sp.dim, dtype=int)
    for level in range(sp.emitter_levels):
        for photons in range(sp.n_max + 1):
            n[sp.index(level, photons)] = photons + (level != hilbert.GROUND)
    orders = np.subtract.outer(n, n).reshape(-1)
    assert np.array_equal(model.orders, orders)
    assert np.all(_full_generator(model)[orders[:, None] != orders[None, :]] == 0)


class TestEvolve:
    def test_cavity_photon_decay(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.0, pump_GHz=0.0, n_max=2)
        model = dynamics.build_model(p, RES)
        rho0 = _pure(model.space, hilbert.GROUND, 1)
        t_half = math.log(2) / (TWO_PI * 24.1)
        t = np.array([0.0, t_half, 2 * t_half])
        rhos = evolve(rho0, p, t, model=model)
        n = [expectation(model.space.number, r) for r in rhos]
        assert n[0] == pytest.approx(1.0, rel=1e-12)
        assert n[1] == pytest.approx(0.5, rel=1e-8)
        assert n[2] == pytest.approx(0.25, rel=1e-8)

    def test_bare_exciton_decay(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.15, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.15, pump_GHz=0.0, n_max=1)
        model = dynamics.build_model(p, RES)
        rho0 = _pure(model.space, hilbert.EXCITON, 0)
        t = np.linspace(0.0, 3.0, 7)
        rhos = evolve(rho0, p, t, model=model)
        pops = [expectation(model.space.projectors["exciton"], r) for r in rhos]
        assert pops == pytest.approx(list(np.exp(-TWO_PI * 0.15 * t)), rel=1e-8)

    def test_identity_with_trivial_generator(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.0, gamma_m_GHz=0.0,
                         gamma_b_GHz=0.0, pump_GHz=0.0, n_max=1)
        model = dynamics.build_model(p, RES)
        rho0 = _pure(model.space, hilbert.EXCITON, 1)
        rhos = evolve(rho0, p, np.array([0.0, 5.0, 50.0]), model=model)
        assert np.max(np.abs(rhos[-1] - rho0)) < 1e-12

    def test_trace_and_positivity_validated(self):
        model = dynamics.build_model(PAPER, RES)
        rho0 = _pure(model.space, hilbert.EXCITON, 0)
        rhos = evolve(rho0, PAPER, np.linspace(0, 5, 21), model=model)
        for r in rhos:
            assert abs(np.trace(r) - 1) < 1e-8
            assert np.min(np.linalg.eigvalsh(r)) > -1e-8

    def test_damped_rabi_matches_closed_form(self):
        # one excitation, no dephasing: the 1-excitation sector evolves as the
        # non-Hermitian 2x2 model; compare populations to 1e-6
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=0.3, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.3, pump_GHz=0.0, n_max=1)
        model = dynamics.build_model(p, RES)
        rho0 = _pure(model.space, hilbert.EXCITON, 0)
        t = np.linspace(0.0, 0.2, 41)
        rhos = evolve(rho0, p, t, model=model)
        pops = np.array([expectation(model.space.projectors["exciton"], r)
                         for r in rhos])
        m2 = TWO_PI * np.array([[0.0 - 0.15j, 18.4], [18.4, 0.0 - 12.05j]])
        exact = []
        for tt in t:
            u = scipy.linalg.expm(-1j * m2 * tt)
            exact.append(abs(u[0, 0]) ** 2)
        assert np.max(np.abs(pops - np.array(exact))) < 1e-6

    def test_exceptional_point_matches_expm(self):
        # g = |gamma_x - gamma_m|/4 with no dephasing: the polariton pair
        # coalesces, L is defective and V is numerically singular
        p = SystemParams(g_GHz=abs(8.5 - 24.1) / 4, gamma_x_GHz=8.5,
                         gamma_m_GHz=24.1, gamma_b_GHz=8.5, pump_GHz=0.0, n_max=3)
        model = dynamics.build_model(p, RES)
        assert model.block(0).cond > dynamics._COND_MAX
        rho0 = _pure(model.space, hilbert.EXCITON, 0)
        t = np.linspace(0.0, 0.5, 11)
        rhos = evolve(rho0, p, t, model=model)
        full = _full_generator(model)
        exact = [scipy.linalg.expm(full * tt) @ rho0.reshape(-1) for tt in t]
        assert np.max(np.abs(rhos.reshape(t.size, -1) - exact)) < 1e-9

    @pytest.mark.parametrize("p,source", [
        (SystemParams(), "cavity"),
        # no dephasing: L at zero frequency has an exactly singular LU pivot
        (SystemParams(g_GHz=0.0, gamma_b_GHz=8.5, pump_GHz=0.5, n_max=1), "exciton"),
    ])
    def test_forced_fallback_matches_eigen_path(self, monkeypatch, p, source):
        eig_model = dynamics.build_model(p, RES)
        assert eig_model.block(0).vinv is not None  # decomposed before the patch
        monkeypatch.setattr(dynamics, "_COND_MAX", 0.0)
        fb_model = dynamics.build_model(p, RES)
        assert fb_model.block(0).vinv is None
        rho0 = _pure(eig_model.space, hilbert.EXCITON, 1)
        t = np.linspace(0.0, 2.0, 9)
        assert np.max(np.abs(evolve(rho0, p, t, model=fb_model)
                             - evolve(rho0, p, t, model=eig_model))) < 1e-9
        tau = np.linspace(0.0, 20.0, 41)
        fb_g2 = g2_auto(p, RES, tau, source=source, model=fb_model)
        eig_g2 = g2_auto(p, RES, tau, source=source, model=eig_model)
        assert np.max(np.abs(fb_g2.values - eig_g2.values)) < 1e-9
        grid = np.linspace(p.omega_m_GHz - 150, p.omega_m_GHz + 150, 401)
        assert 0.0 in grid - p.omega_m_GHz  # the resolvent's stationary point
        fb_spec = emission_spectrum(p, RES, grid, source=source, model=fb_model)
        eig_spec = emission_spectrum(p, RES, grid, source=source, model=eig_model)
        assert np.max(np.abs(fb_spec.intensity - eig_spec.intensity)) < 1e-9

    @pytest.mark.parametrize("cond_max", [dynamics._COND_MAX, 0.0])
    def test_cross_order_superposition_matches_expm(self, monkeypatch, cond_max):
        # |g,0>, |x,0> and |g,2> carry N = 0, 1, 2, so rho0 spans k = -2..2
        monkeypatch.setattr(dynamics, "_COND_MAX", cond_max)
        p = replace(PAPER, n_max=3)
        model = dynamics.build_model(p, RES)
        sp = model.space
        kets = np.eye(sp.dim, dtype=complex)
        psi = (kets[sp.index(hilbert.GROUND, 0)] + kets[sp.index(hilbert.EXCITON, 0)]
               + kets[sp.index(hilbert.GROUND, 2)]) / math.sqrt(3.0)
        rho0 = np.outer(psi, psi.conj())
        assert set(model.orders[rho0.reshape(-1) != 0]) == {-2, -1, 0, 1, 2}
        t = np.linspace(0.0, 0.5, 11)
        rhos = evolve(rho0, p, t, model=model)
        full = _full_generator(model)
        exact = [scipy.linalg.expm(full * tt) @ rho0.reshape(-1) for tt in t]
        assert np.max(np.abs(rhos.reshape(t.size, -1) - exact)) < 1e-9
        assert all((model.block(k).vinv is None) == (cond_max == 0.0) for k in range(-2, 3))

    @given(g=st.floats(0.0, 40.0), gx=st.floats(0.1, 40.0), gm=st.floats(0.1, 40.0),
           b_share=st.floats(0.0, 1.0), pump=st.floats(0.0, 2.0),
           dw=st.floats(-2000.0, 2000.0), n_max=st.sampled_from([1, 2, 3]))
    def test_propagation_matches_expm(self, g, gx, gm, b_share, pump, dw, n_max):
        p = SystemParams(g_GHz=g, gamma_x_GHz=gx, gamma_m_GHz=gm,
                         gamma_b_GHz=b_share * gx, pump_GHz=pump, n_max=n_max)
        model = dynamics.build_model(p, Detuning.from_GHz(dw, 942.5))
        rho0 = _pure(model.space, hilbert.EXCITON, 1)
        t = np.array([0.0, 0.003, 0.05, 0.5])
        rhos = evolve(rho0, p, t, model=model, validate=False)
        full = _full_generator(model)
        exact = [scipy.linalg.expm(full * tt) @ rho0.reshape(-1) for tt in t]
        assert np.max(np.abs(rhos.reshape(t.size, -1) - exact)) < 1e-9
        for r in rhos:
            assert abs(np.trace(r) - 1.0) < 1e-9
            assert np.min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))) > -1e-9


# At n_max = 1 and zero pump the k = -1 block is block-triangular: jumps feed
# the one-excitation coherences |0><1| from the two-excitation ones, never
# back, so two of its eigenvalues are those of the closed form's 2x2
# generator, as -hwhm + i(omega - omega_m) in the frame rotating at omega_m.
# Trace and determinant of the matched pair stay exact at the exceptional
# point (dw = 0, g = |gamma_m - gamma_x|/4), where the two eigenvalues do not.
@given(g=st.floats(0.1, 100.0), gm=st.floats(0.1, 200.0), gx=st.floats(0.03, 50.0),
       b_share=st.floats(0.0, 1.0), dl=st.floats(-2.0, 2.0))
@example(g=(24.1 - 8.5) / 4, gm=24.1, gx=8.5, b_share=0.0, dl=0.0)
@example(g=(50.0 - 0.1) / 4, gm=0.1, gx=50.0, b_share=0.3, dl=0.0)
@example(g=(200.0 - 0.03) / 4, gm=200.0, gx=0.03, b_share=1.0, dl=0.0)
def test_coherence_block_holds_the_closed_form_eigenvalues(g, gm, gx, b_share, dl):
    p = SystemParams(g_GHz=g, gamma_x_GHz=gx, gamma_m_GHz=gm,
                     gamma_b_GHz=b_share * gx, pump_GHz=0.0, n_max=1)
    det = Detuning.from_nm(dl, p.lambda_m_nm)
    lam = dynamics.build_model(p, det).block(-1).evals / TWO_PI
    blue, red, _, omega_m = polariton._complex_eigenvalues(
        p.lambda_m_nm, det.dw_GHz, g, gx, gm)
    want = 1j * np.conj(np.array([blue, red]) - omega_m)
    scale = max(np.max(np.abs(lam)), np.max(np.abs(want)))
    # The closed form works on the ~3.2e5 GHz carrier, so its rounding
    # floor is a few ulps of omega_m, however narrow the lines.  Over 4,000
    # seeded draws the mismatch reached at most 0.2 of this bound.
    tol = 1e-10 * scale + 4.0 * np.spacing(omega_m)
    assert min(max(abs(lam[i] + lam[j] - want.sum()),
                   abs(lam[i] * lam[j] - want.prod()) / scale)
               for i, j in itertools.combinations(range(lam.size), 2)) < tol


def _decay_time(p, det):
    """∫(1 − ρ_gg) dt from |x,0⟩ as the modal sum −Σ w_k/λ_k of the k = 0 block."""
    model = dynamics.build_model(p, det)
    b, sp = model.block(0), model.space
    rho0 = _pure(sp, hilbert.EXCITON, 0).reshape(-1)[b.idx]
    excited = (np.eye(sp.dim) - sp.projectors["ground"]).T.reshape(-1)[b.idx]
    w = (excited @ b.vecs) * (b.vinv @ rho0)
    decaying = np.abs(b.evals) > 1e-9 * np.max(np.abs(b.evals))
    assert np.max(np.abs(w[~decaying])) < 1e-12  # the ground state holds no excitation
    return float(-np.sum(w[decaying] / b.evals[decaying]).real)


# Measured (law − master equation)/master equation: width γ_m + γ_x −0.14%,
# −0.05%, −0.01%; purcell_lifetime at γ_x = 0.015 −0.05%, 0.00%, +0.01%.
@pytest.mark.parametrize("dl_nm", [1.64, 2.46, 4.1])
def test_decay_time_matches_lifetime_law_with_dephasing_width(dl_nm):
    det = Detuning.from_nm(dl_nm, 942.5)
    p = SystemParams(g_GHz=20.7, pump_GHz=0.0, n_max=1)
    width = p.gamma_m_GHz + p.gamma_x_GHz
    gamma = p.gamma_b_GHz + width * p.g_GHz**2 / (det.dw_GHz**2 + (width / 2) ** 2)
    tau = _decay_time(p.with_detuning(det), det)
    assert 1.0 / (TWO_PI * gamma) == pytest.approx(tau, rel=2e-3)
    # The paper's law leaves γ_x out: at γ_x = 8.5 GHz it overstates τ by
    # 9-24% here ...
    assert purcell_lifetime(p, det).tau_ns > 1.05 * tau
    # ... and it is the γ_x ≪ γ_m limit of the master equation.
    clean = replace(p, gamma_x_GHz=0.015)
    assert purcell_lifetime(clean, det).tau_ns == pytest.approx(
        _decay_time(clean.with_detuning(det), det), rel=1e-3)


class TestSteadyState:
    def test_no_pump_gives_vacuum(self):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.0, n_max=2)
        model = dynamics.build_model(p, RES)
        rho = steady_state(p, model=model)
        vac = model.space.index(hilbert.GROUND, 0)
        assert rho[vac, vac].real == pytest.approx(1.0, abs=1e-9)

    def test_two_level_detailed_balance(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.15, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.15, pump_GHz=0.01, n_max=1)
        model = dynamics.build_model(p, RES)
        rho = steady_state(p, model=model)
        pop = expectation(model.space.projectors["exciton"], rho)
        assert pop == pytest.approx(0.01 / 0.16, rel=1e-9)

    def test_steady_state_agrees_with_long_evolution(self):
        model = dynamics.build_model(PAPER, RES)
        rho_ss = steady_state(PAPER, model=model)
        rho0 = _pure(model.space, hilbert.GROUND, 0)
        rho_t = evolve(rho0, PAPER, np.array([500.0]), validate=False,
                       model=model)[0]
        assert np.max(np.abs(rho_t - rho_ss)) < 1e-7

    def test_residual_is_small(self):
        model = dynamics.build_model(PAPER, RES)
        rho = steady_state(PAPER, model=model)
        resid = np.linalg.norm(_full_generator(model) @ rho.reshape(-1))
        assert resid < 1e-10

    def test_solved_once_and_returned_as_copy(self):
        model = dynamics.build_model(PAPER, RES)
        first = steady_state(PAPER, model=model)
        first[:] = 0.0
        assert steady_state(PAPER, model=model) == pytest.approx(model.steady, abs=0)
        assert np.trace(model.steady).real == pytest.approx(1.0, rel=1e-12)
        assert model.steady is model.steady

    # No dissipation leaves every stationary population of H free; a dark
    # exciton (no decay, no pump, no coupling) keeps its population.
    @pytest.mark.parametrize("params, dim", [
        (dict(gamma_m_GHz=0.0, gamma_x_GHz=0.0, gamma_b_GHz=0.0, pump_GHz=0.0), 6),
        (dict(g_GHz=0.0, gamma_x_GHz=0.0, gamma_b_GHz=0.0, pump_GHz=0.0,
              gamma_m_GHz=24.1), 2),
    ], ids=["no-dissipation", "dark-exciton"])
    def test_degenerate_steady_state_rejected(self, params, dim):
        p = SystemParams(n_max=2, **params)
        with pytest.raises(NumericalError,
                           match=f"degenerate steady state: .*dimension {dim}$"):
            steady_state(p, RES)


class TestEmissionSpectrum:
    def _grid(self, p, det, pad=60.0, step=0.05):
        m = eigenmodes(p, det)
        lo = min(m.omega_minus_GHz, p.omega_m_GHz) - pad
        hi = max(m.omega_plus_GHz, p.omega_m_GHz) + pad
        return np.arange(lo, hi, step)

    def test_resonant_doublet_mode_frequencies(self):
        det = RES
        model = dynamics.build_model(PAPER, det)
        rho = steady_state(PAPER, model=model)
        dt = 1.0 / (8 * 100.0)
        tau = np.arange(0.0, 0.5, dt)
        vals = dynamics._propagate_probe(model, model.space.a @ rho,
                                         model.space.a, tau)
        s = fitkit.fit_damped_modes(vals, dt, 2)
        freqs = np.sort(s.imag / TWO_PI) + PAPER.omega_m_GHz
        m = eigenmodes(PAPER, det)
        assert freqs == pytest.approx([m.omega_minus_GHz, m.omega_plus_GHz], abs=1.0)

    def test_uncoupled_exciton_line_width(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.01, n_max=1)
        det = Detuning.from_GHz(50.0, 942.5)
        grid = np.arange(p.omega_m_GHz - 120, p.omega_m_GHz + 60, 0.04)
        s = emission_spectrum(p, det, grid, source="exciton")
        peak = grid[np.argmax(s.intensity)]
        assert peak == pytest.approx(p.omega_m_GHz - 50.0, abs=0.05)
        above = grid[s.intensity >= 0.5]
        assert above[-1] - above[0] == pytest.approx(8.5, rel=0.02)

    def test_detuned_transfer_produces_cavity_line(self):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.01, transfer_GHz=0.05,
                         n_max=2)
        det = Detuning.from_nm(4.1, 942.5)
        wm = p.omega_m_GHz
        grid = np.arange(wm - 80, wm + 80, 0.1)
        s = emission_spectrum(p, det, grid, source="cavity")
        # a bright line at the bare cavity despite the exciton 1383 GHz away
        peak = grid[np.argmax(s.intensity)]
        assert abs(peak - wm) < 1.0

    def test_coarse_grid_flagged(self):
        grid = np.arange(PAPER.omega_m_GHz - 100, PAPER.omega_m_GHz + 100, 9.0)
        with pytest.raises(ValueError, match="too coarse"):
            emission_spectrum(PAPER, RES, grid)

    @pytest.mark.parametrize("p,source", [
        (SystemParams(), "cavity"),
        (SystemParams(g_GHz=0.0, gamma_b_GHz=8.5, pump_GHz=0.5, n_max=1), "exciton"),
    ])
    def test_forced_fallback_on_field_block(self, monkeypatch, p, source):
        # the spectrum lives in the k = -1 block; decompose it before the
        # patch so that the two models take different paths there
        grid = np.linspace(p.omega_m_GHz - 150, p.omega_m_GHz + 150, 401)
        eig_model = dynamics.build_model(p, RES)
        eig_spec = emission_spectrum(p, RES, grid, source=source, model=eig_model)
        assert eig_model.block(-1).vinv is not None
        monkeypatch.setattr(dynamics, "_COND_MAX", 0.0)
        fb_model = dynamics.build_model(p, RES)
        fb_spec = emission_spectrum(p, RES, grid, source=source, model=fb_model)
        assert fb_model.block(-1).vinv is None
        assert np.max(np.abs(fb_spec.intensity - eig_spec.intensity)) < 1e-9

    @given(gx=st.floats(1.0, 40.0), gm=st.floats(1.0, 40.0),
           coupling=st.floats(2.0, 4.0), skew=st.floats(-1.0, 1.0))
    def test_resolvent_peaks_match_polaritons(self, gx, gm, coupling, skew):
        # n_max = 1 and a vanishing pump leave the linear two-mode problem;
        # its peaks sit at the polariton frequencies up to an interference
        # shift of order hwhm**2 / splitting.  With g at least the summed
        # linewidth (coupling >= 2) and |dw| <= g, a random sweep of 300
        # points measured at most 0.15 of the narrower linewidth.
        g = coupling * (gx + gm) / 2
        p = SystemParams(g_GHz=g, gamma_x_GHz=gx, gamma_m_GHz=gm,
                         pump_GHz=1e-6, n_max=1)
        det = Detuning.from_GHz(skew * g, 942.5)
        m = eigenmodes(p, det)
        narrow = 2 * min(m.hwhm_plus_GHz, m.hwhm_minus_GHz)
        grid = np.arange(m.omega_minus_GHz - 3 * narrow, m.omega_plus_GHz + 3 * narrow,
                         narrow / 20)
        got = _local_maxima(emission_spectrum(p, det, grid, source="cavity").intensity, grid)
        want = _local_maxima(spectral_function(grid, p, det).intensity, grid)
        assert len(got) == len(want) == 2
        assert np.max(np.abs(got - want)) < 0.25 * narrow

    # Only the modal path checks: the direct solve serves only a and σ,
    # whose operands lie off k = 0, where no stationary part sits.
    def test_undamped_part_rejected(self):
        # <n(tau) n(0)> tends to <n>^2, a stationary part the resolvent
        # cannot hold (a field with <a> != 0 would do the same)
        model = dynamics.build_model(PAPER, RES)
        rho = steady_state(PAPER, model=model)
        z = 2j * math.pi * np.linspace(-50.0, 50.0, 5)
        with pytest.raises(NumericalError, match="undamped"):
            dynamics._resolvent(model, rho, model.space.number, z, "number")

    @pytest.mark.parametrize("g,dw", [(0.0, 0.0), (0.0, 50.0), (5.0, 0.0),
                                      (5.0, -50.0), (18.4, 0.0), (18.4, 50.0),
                                      (18.4, 1383.7), (18.4, -1383.7)])
    def test_correlation_modes_match_eigenmodes(self, g, dw):
        p = SystemParams(g_GHz=g, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.01, n_max=3)
        det = Detuning.from_GHz(dw, 942.5)
        model = dynamics.build_model(p, det)
        rho = steady_state(p, model=model)
        op = model.space.a if g > 0 else model.space.sigma
        dt = 1.0 / (8 * (abs(dw) + 80.0))
        tau = np.arange(0.0, 0.5, dt)
        vals = dynamics._propagate_probe(model, op @ rho, op, tau)
        n_modes = 2 if g > 0 else 1
        s = fitkit.fit_damped_modes(vals, dt, n_modes)
        freqs = np.sort(s.imag / TWO_PI) + p.omega_m_GHz
        m = eigenmodes(p, det)
        if g > 0:
            want = np.sort([m.omega_minus_GHz, m.omega_plus_GHz])
        else:
            want = np.array([p.omega_m_GHz - dw])  # bare exciton line
        assert freqs == pytest.approx(want, abs=0.5)


class TestG2:
    def test_two_level_antibunching(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.2, pump_GHz=0.02, n_max=1)
        tau = np.linspace(0.0, 8.0, 65)
        trace = g2_auto(p, RES, tau, source="exciton")
        assert trace.values[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.diff(trace.values) > -1e-9)
        assert trace.values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_g2_auto_approaches_one(self):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.01, transfer_GHz=0.02,
                         n_max=3)
        tau = np.linspace(0.0, 60.0, 61)
        trace = g2_auto(p, RES, tau)
        assert trace.values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_cross_correlation_dip_and_asymmetry(self):
        # feeder model far off resonance: both streams anti-correlated with
        # different recovery on the two sides
        p = SystemParams(lambda_x_nm=946.6, g_GHz=20.7, gamma_x_GHz=0.015,
                         gamma_m_GHz=24.1, gamma_b_GHz=0.015, pump_GHz=0.002,
                         n_max=1, emitter_levels=3, feeder_pump_GHz=0.01,
                         feeder_decay_GHz=0.1224)
        det = Detuning.from_nm(4.1, 942.5)
        tau = np.linspace(0.0, 12.0, 49)
        trace = g2_cross(p, det, tau)
        mid = np.argmin(np.abs(trace.tau_ns))
        assert trace.values[mid] < 0.2
        # positive side (cavity after exciton) recovers on the feeder scale,
        # negative side on the exciton scale: at +-2 ns they differ strongly
        plus = np.interp(2.0, trace.tau_ns, trace.values)
        minus = np.interp(-2.0, trace.tau_ns, trace.values)
        assert plus > 2.0 * minus

    def test_cross_correlation_grid_without_zero_delay(self):
        # the 0-based grid holds its zero delay once, on the negative side;
        # a grid starting above 0 returns the same trace without it
        model = dynamics.build_model(SMALL, RES)
        tau = np.arange(0.0, 3.01, 0.25)
        with_zero = g2_cross(SMALL, RES, tau, model=model)
        without = g2_cross(SMALL, RES, tau[1:], model=model)
        keep = with_zero.tau_ns != 0.0
        assert np.count_nonzero(~keep) == 1
        assert np.array_equal(without.tau_ns, with_zero.tau_ns[keep])
        assert np.array_equal(without.values, with_zero.values[keep])

    @pytest.mark.parametrize("cond_max", [dynamics._COND_MAX, 0.0])
    @pytest.mark.parametrize("p,dl_nm", [(PAPER, 0.0), (FEEDER, 4.1)])
    def test_modal_sum_matches_full_propagation(self, monkeypatch, cond_max, p, dl_nm):
        # sum over the modes of a block against e^{L tau} x projected on the
        # probe, for a g2 vector (k = 0) and a field vector (k = -1), both
        # normalized as g2 and g1 are, so that the values are of order 1
        monkeypatch.setattr(dynamics, "_COND_MAX", cond_max)
        det = Detuning.from_nm(dl_nm, 942.5)
        model = dynamics.build_model(p.with_detuning(det), det)
        rho, a, sig = model.steady, model.space.a, model.space.sigma
        n_m, n_x = a.conj().T @ a, sig.conj().T @ sig
        g2_vec = sig @ rho @ sig.conj().T / expectation(n_x, rho)
        pairs = [(g2_vec, n_m / expectation(n_m, rho)), (a @ rho / expectation(n_m, rho), a)]
        tau = np.linspace(0.0, 20.0, 81)
        for x0, probe in pairs:
            got = dynamics._propagate_probe(model, x0, probe, tau)
            want = dynamics._propagate(model, x0.reshape(-1), tau) @ probe.conj().reshape(-1)
            assert np.max(np.abs(got - want)) < 1e-14
        assert all((model.block(k).vinv is None) == (cond_max == 0.0) for k in (0, -1))

    def test_zero_emission_rejected(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.2, pump_GHz=0.01, n_max=1)
        with pytest.raises(NumericalError):
            g2_auto(p, RES, np.linspace(0, 1, 5), source="cavity")


def test_truncation_convergence():
    # observables move by < 0.1% when n_max grows by 2 (weak pump keeps <n> small)
    pops = []
    for n_max in (5, 7):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.01, n_max=n_max)
        model = dynamics.build_model(p, RES)
        rho = steady_state(p, model=model)
        pops.append(expectation(model.space.number, rho))
    assert abs(pops[1] - pops[0]) <= 1e-3 * abs(pops[0])


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("dw", [0.0, 30.0, -80.0, 120.0])
@pytest.mark.parametrize("pump", [0.005, 0.01, 0.02, 0.05])
def test_dark_cavity_rejected(pump, dw, n_max):
    # g = 0: nothing reaches the cavity, whose steady-state population is
    # rounding noise of either sign; it must never be normalized
    p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.2, pump_GHz=pump, n_max=n_max)
    det = Detuning.from_GHz(dw, 942.5)
    model = dynamics.build_model(p, det)
    with pytest.raises(NumericalError, match="zero emission"):
        g2_auto(p, det, np.linspace(0, 1, 5), source="cavity", model=model)
    grid = np.linspace(p.omega_m_GHz - 150, p.omega_m_GHz + 150, 4001)
    with pytest.raises(NumericalError, match="no emission"):
        emission_spectrum(p, det, grid, source="cavity", model=model)


def test_mismatched_model_rejected():
    # a model built for p1 would evaluate p1's physics for p2, whose cavity
    # sits 0.5 nm away: the spectrum peak moved to the grid edge
    p1 = PAPER.with_detuning(RES)
    p2 = replace(p1, lambda_m_nm=p1.lambda_m_nm + 0.5)
    det2 = Detuning.from_nm(0.1, 942.5)
    m1 = dynamics.build_model(p1, RES)
    grid = np.linspace(p2.omega_m_GHz - 150, p2.omega_m_GHz + 150, 4001)
    tau = np.linspace(0, 1, 5)
    rho0 = _pure(m1.space, hilbert.GROUND, 0)
    calls = [
        lambda p, det: evolve(rho0, p, tau, det, model=m1),
        lambda p, det: steady_state(p, det, model=m1),
        lambda p, det: emission_spectrum(p, det, grid, model=m1),
        lambda p, det: g2_auto(p, det, tau, model=m1),
        lambda p, det: g2_cross(p, det, tau, model=m1),
    ]
    for call in calls:
        for p, det in ((p2, RES), (p2, None), (p1, det2)):
            with pytest.raises(ValueError, match="model was built for other"):
                call(p, det)
        call(p1, RES)
        call(p1, None)


SMALL = replace(PAPER, n_max=1)
SMALL_GRID = np.linspace(SMALL.omega_m_GHz - 150, SMALL.omega_m_GHz + 150, 3001)
SMALL_TAU = np.linspace(0.0, 1.0, 5)
FEW_PULSES = trajectories.PulseConfig(n_pulses=5)
# (exception, what its message names, a call that leaves that input out)
MISSING_INPUTS = {
    "eigenmodes": (TypeError, "'detuning'", lambda: eigenmodes(SMALL)),
    "spectral_function": (TypeError, "'detuning'",
                          lambda: spectral_function(SMALL_GRID, SMALL)),
    "purcell_lifetime": (TypeError, "'detuning'", lambda: purcell_lifetime(SMALL)),
    "hamiltonian": (TypeError, "'detuning'", lambda: hilbert.hamiltonian(
        SMALL, space=hilbert.build_space(SMALL))),
    "build_model": (TypeError, "'detuning'", lambda: dynamics.build_model(SMALL)),
    "averaged_spectrum": (TypeError, "'detuning'", lambda: specdiff.averaged_spectrum(
        SMALL, cfg=specdiff.TelegraphConfig(), grid_GHz=SMALL_GRID, mode="fast")),
    "run_cw": (TypeError, "'detuning'",
               lambda: trajectories.run_cw(SMALL, duration_ns=10.0, seed=1)),
    "run_pulsed": (TypeError, "'detuning'",
                   lambda: trajectories.run_pulsed(SMALL, pulses=FEW_PULSES, seed=1)),
    "ensemble_populations": (TypeError, "'detuning'", lambda: trajectories.ensemble_populations(
        SMALL, operator=np.eye(4), t_grid_ns=SMALL_TAU, n_trajectories=2, seed=1)),
    "hamiltonian-space": (TypeError, "'space'", lambda: hilbert.hamiltonian(SMALL, RES)),
    "collapse_channels-space": (TypeError, "'space'",
                                lambda: hilbert.collapse_channels(SMALL)),
    "run_pulsed-pulses": (TypeError, "'pulses'",
                          lambda: trajectories.run_pulsed(SMALL, RES, seed=1)),
    "run_cw-seed": (TypeError, "'seed'", lambda: trajectories.run_cw(SMALL, RES, 10.0)),
    "run_pulsed-seed": (TypeError, "'seed'",
                        lambda: trajectories.run_pulsed(SMALL, RES, FEW_PULSES)),
    "evolve": (ValueError, "no detuning",
               lambda: evolve(np.eye(4) / 4, SMALL, SMALL_TAU)),
    "steady_state": (ValueError, "no detuning", lambda: steady_state(SMALL)),
    "emission_spectrum": (ValueError, "no detuning",
                          lambda: emission_spectrum(SMALL, None, SMALL_GRID)),
    "g2_auto": (ValueError, "no detuning", lambda: g2_auto(SMALL, None, SMALL_TAU)),
    "g2_cross": (ValueError, "no detuning", lambda: g2_cross(SMALL, None, SMALL_TAU)),
}


@pytest.mark.parametrize("entry", MISSING_INPUTS)
def test_physics_inputs_are_never_filled_in(entry):
    # every detuning, state space, pulse config and seed is passed by the
    # caller; none is read off SystemParams or a default
    exc, names, call = MISSING_INPUTS[entry]
    with pytest.raises(exc, match=names):
        call()


@pytest.mark.parametrize("cond_max", [dynamics._COND_MAX, 0.0], ids=["modal", "fallback"])
def test_row_slices_leave_sums_unchanged(monkeypatch, cond_max):
    # Slices of 7 grid rows, the last one partial, against one slice of all.
    monkeypatch.setattr(dynamics, "_COND_MAX", cond_max)
    det = Detuning.from_nm(0.3, 942.5)
    p = PAPER.with_detuning(det)
    grid = np.linspace(p.omega_m_GHz - 150, p.omega_m_GHz + 150, 401)
    tau = np.linspace(0.0, 5.0, 101)

    def sums():
        model = dynamics.build_model(p, det)
        spec = emission_spectrum(p, det, grid, model=model)
        return [spec.intensity, *spec.components.values(),
                g2_auto(p, det, tau, model=model).values,
                g2_cross(p, det, tau, model=model).values]

    whole = sums()
    monkeypatch.setattr(dynamics, "_ROWS", 7)
    for sliced, ref in zip(sums(), whole, strict=True):
        assert np.array_equal(sliced, ref)


@pytest.mark.parametrize("kind", ["spectrum", "g2"])
def test_memory_bounded_in_grid_size(kind):
    # 3-level, n_max = 5: the k = -1 block has 45 modes, so (points x modes)
    # complex temporaries over a whole grid would take about 1.5 kB per point.
    p = replace(PAPER, emitter_levels=3, feeder_pump_GHz=0.01, feeder_decay_GHz=0.1224)
    model = dynamics.build_model(p, RES)
    small, large = 20_000, 200_000

    def peak(n):
        if kind == "spectrum":
            call, grid = emission_spectrum, p.omega_m_GHz + np.linspace(-400.0, 400.0, n)
        else:
            call, grid = g2_auto, np.linspace(0.0, 20.0, n)
        call(p, RES, grid, model=model)  # decompose the blocks outside the measurement
        tracemalloc.start()
        try:
            call(p, RES, grid, model=model)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The arrays over the grid (the frequencies or delays, the complex sum,
    # the parts and the normalized outputs) hold under 8 float64 per point.
    assert peak(large) - peak(small) < 8 * 8 * (large - small) + 2e6
