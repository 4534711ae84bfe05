import math

import numpy as np
import pytest

from cavqed import hilbert
from cavqed.hilbert import build_space, collapse_channels, hamiltonian
from cavqed.polariton import SystemParams, eigenmodes
from cavqed.units import Detuning

TWO_PI = 2 * math.pi


def test_smallest_space():
    p = SystemParams(n_max=1, emitter_levels=2)
    sp = build_space(p)
    assert sp.dim == 4
    # a has exactly one nonzero entry per emitter sector
    for level in (0, 1):
        block = sp.a[sp.index(level, 0):sp.index(level, 1) + 1,
                     sp.index(level, 0):sp.index(level, 1) + 1]
        assert np.count_nonzero(block) == 1


def test_number_operator():
    p = SystemParams(n_max=5)
    sp = build_space(p)
    for n in range(6):
        ket = np.eye(sp.dim, dtype=complex)[sp.index(0, n)]
        assert np.vdot(ket, sp.number @ ket).real == pytest.approx(n)


def test_ladder_commutator_below_truncation():
    p = SystemParams(n_max=5)
    sp = build_space(p)
    comm = sp.a @ sp.ad - sp.ad @ sp.a
    for n in range(5):  # n < n_max
        ket = np.eye(sp.dim, dtype=complex)[sp.index(1, n)]
        assert np.vdot(ket, comm @ ket).real == pytest.approx(1.0)


def test_three_level_space():
    p = SystemParams(n_max=2, emitter_levels=3)
    sp = build_space(p)
    assert sp.dim == 9
    assert sp.sigma_f is not None
    # feeder lowering connects |f,n> to |g,n> only
    kets = np.eye(sp.dim, dtype=complex)
    out = sp.sigma_f @ kets[sp.index(hilbert.FEEDER, 1)]
    assert np.vdot(kets[sp.index(hilbert.GROUND, 1)], out) == pytest.approx(1.0)


def test_hamiltonian_hermitian_and_diagonal_limit():
    p = SystemParams(g_GHz=0.0, gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=0.0)
    h = hamiltonian(p, Detuning.zero(942.5), build_space(p))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-12
    q = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=0.015)
    h2 = hamiltonian(q, Detuning.from_GHz(50, 942.5), build_space(q))
    assert np.max(np.abs(h2 - h2.conj().T)) < 1e-12


def test_total_excitation_conserved_below_truncation():
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.015, n_max=4)
    sp = build_space(p)
    h = hamiltonian(p, Detuning.zero(942.5), sp)
    sig = sp.sigma
    n_exc = sig.conj().T @ sig + sp.number
    comm = h @ n_exc - n_exc @ h
    # the commutator acts only at the truncation boundary |x, n_max>
    boundary = sp.index(hilbert.EXCITON, p.n_max)
    nonzero = np.argwhere(np.abs(comm) > 1e-9)
    assert all(boundary in pair for pair in nonzero)


def _effective_block(p, det):
    sp = build_space(p)
    h_eff = hamiltonian(p, det, sp).astype(complex)
    for c in collapse_channels(p, sp):
        j = c.jump_operator
        h_eff -= 0.5j * (j.conj().T @ j)
    ix, im = sp.index(hilbert.EXCITON, 0), sp.index(hilbert.GROUND, 1)
    return h_eff[np.ix_([ix, im], [ix, im])]


@pytest.mark.parametrize("dw", [0.0, 50.0, -50.0, 1383.7])
def test_single_excitation_block_reproduces_eigenmodes(dw):
    # decay-only model: the 1-excitation non-Hermitian block is exactly the
    # closed-form coupled-mode generator
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                     gamma_b_GHz=8.5, pump_GHz=0.0, transfer_GHz=0.0, n_max=1)
    det = Detuning.from_GHz(dw, 942.5)
    ev = np.linalg.eigvals(_effective_block(p, det))
    ev = ev[np.argsort(ev.real)]
    got = [(p.omega_m_GHz + e.real / TWO_PI, -e.imag / TWO_PI) for e in ev]
    m = eigenmodes(p, det)
    want = [(m.omega_minus_GHz, m.hwhm_minus_GHz),
            (m.omega_plus_GHz, m.hwhm_plus_GHz)]
    for (f_got, w_got), (f_want, w_want) in zip(got, want):
        assert f_got == pytest.approx(f_want, abs=1e-9 * abs(f_want))
        assert w_got == pytest.approx(w_want, abs=1e-9 * max(w_want, 1.0))


def test_dephasing_channel_completes_exciton_linewidth():
    # with the dephasing channel included, the block matches eigenmodes built
    # from the total linewidth gamma_x = gamma_b + 2 gamma_d
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.015, pump_GHz=0.0, n_max=1)
    det = Detuning.from_GHz(50.0, 942.5)
    ev = np.linalg.eigvals(_effective_block(p, det))
    m = eigenmodes(p, det)
    assert sorted(-ev.imag / TWO_PI) == pytest.approx(
        sorted([m.hwhm_minus_GHz, m.hwhm_plus_GHz]), rel=1e-9)


def test_second_rung_splitting():
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.015, n_max=2)
    sp = build_space(p)
    h = hamiltonian(p, Detuning.zero(942.5), sp)
    idx = [sp.index(hilbert.EXCITON, 1), sp.index(hilbert.GROUND, 2)]
    block = h[np.ix_(idx, idx)]
    ev = np.linalg.eigvalsh(block)
    assert ev[1] - ev[0] == pytest.approx(2 * math.sqrt(2) * 18.4 * TWO_PI, rel=1e-12)


class TestCollapseChannels:
    def test_paper_params_channel_set(self):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.01, transfer_GHz=0.05)
        sp = build_space(p)
        chans = {c.label: c for c in collapse_channels(p, sp)}
        assert set(chans) == {"cavity_loss", "exciton_radiative", "pure_dephasing",
                              "exciton_pump", "transfer"}
        assert chans["pure_dephasing"].rate_GHz == pytest.approx(2 * 4.2425)
        # jump operator norm: sqrt(2 * 2pi * gamma_d) on the exciton projector
        ket = np.eye(sp.dim, dtype=complex)[sp.index(hilbert.EXCITON, 0)]
        val = np.vdot(ket, chans["pure_dephasing"].jump_operator @ ket).real
        assert val == pytest.approx(math.sqrt(2 * TWO_PI * 4.2425), rel=1e-9)

    def test_pure_decay_model(self):
        p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=8.5, pump_GHz=0.0, transfer_GHz=0.0)
        active = [c for c in collapse_channels(p, build_space(p)) if c.rate_GHz > 0]
        assert {c.label for c in active} == {"cavity_loss", "exciton_radiative"}

    def test_transfer_operator_moves_excitation_to_cavity(self):
        p = SystemParams(transfer_GHz=0.1, n_max=2)
        sp = build_space(p)
        chans = {c.label: c for c in collapse_channels(p, sp)}
        kets = np.eye(sp.dim, dtype=complex)
        out = chans["transfer"].operator @ kets[sp.index(hilbert.EXCITON, 0)]
        assert np.vdot(kets[sp.index(hilbert.GROUND, 1)], out) == pytest.approx(1.0)

    def test_feeder_rate_from_lifetime(self):
        rate = 1.0 / (2 * math.pi * 1.3)
        p = SystemParams(emitter_levels=3, feeder_decay_GHz=rate,
                         feeder_pump_GHz=0.01)
        sp = build_space(p)
        chans = {c.label: c for c in collapse_channels(p, sp)}
        assert chans["feeder_decay"].rate_GHz == pytest.approx(0.1224, abs=2e-4)
        # feeder decay creates a cavity photon while dropping f -> g
        kets = np.eye(sp.dim, dtype=complex)
        out = chans["feeder_decay"].operator @ kets[sp.index(hilbert.FEEDER, 0)]
        assert np.vdot(kets[sp.index(hilbert.GROUND, 1)], out) == pytest.approx(1.0)


def test_invalid_truncation_rejected():
    with pytest.raises(ValueError):
        SystemParams(n_max=0)
