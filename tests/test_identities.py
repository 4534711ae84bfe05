"""Exact identities between runs, which need no seed and no calibrated bound.

Rate–time scaling: multiplying g, every rate and the frequency detuning by
s multiplies the generator by s, so every delay, duration and frequency
offset from omega_m scales by 1/s or s and every normalized output stays
put to rounding.  Detuning mirror: flipping the sign of the frequency
detuning conjugates the generator up to the parity of the photon number, so
spectra mirror about omega_m and the correlations and click streams do not
change at all.

Each bound is 100 times the largest deviation measured over s = 2, 3 and
0.1 on a 2-vCPU x86-64 VM with numpy 2.4 and scipy 1.17.  Neither relation
catches a wrong 2π or a flipped frequency axis; the closed-form and
eigenvalue tests in test_dynamics do.
"""

from dataclasses import replace

import numpy as np
import pytest

from cavqed import dynamics, hilbert
from cavqed.dynamics import emission_spectrum, evolve, g2_auto, g2_cross
from cavqed.polariton import SystemParams, spectral_function
from cavqed.trajectories import run_cw
from cavqed.units import Detuning

RATES = ("g_GHz", "gamma_x_GHz", "gamma_m_GHz", "gamma_b_GHz", "pump_GHz",
         "transfer_GHz", "feeder_pump_GHz", "feeder_decay_GHz")
# Pumped, with transfer and a detuning, so that no rate or offset is zero.
POINT = SystemParams(pump_GHz=0.3, transfer_GHz=0.05, n_max=3)
DW_GHZ = 30.0
OFFSETS = np.linspace(-150.0, 150.0, 601)
TAU = np.linspace(0.0, 2.0, 41)
DURATION = 1000.0
SCALES = [2.0, 3.0, 0.1]


def _scaled(p, s):
    return replace(p, **{name: s * getattr(p, name) for name in RATES})


def _outputs(s):
    """Master-equation and closed-form outputs at the point scaled by s, on scaled axes."""
    p, det = _scaled(POINT, s), Detuning.from_GHz(s * DW_GHZ, 942.5)
    model = dynamics.build_model(p, det)
    grid = p.omega_m_GHz + s * OFFSETS
    return (g2_auto(p, det, TAU / s, model=model).values,
            g2_cross(p, det, TAU / s, model=model).values,
            emission_spectrum(p, det, grid, model=model).intensity,
            spectral_function(grid, p, det).intensity)


@pytest.mark.parametrize("s", SCALES)
def test_rate_time_scaling(s):
    # Measured at most 6.7e-14 (g2_auto), 6.7e-14 (g2_cross), 2.9e-11
    # (emission_spectrum) and 6.6e-11 (spectral_function), unit-peak values.
    bounds = (7e-12, 7e-12, 3e-9, 7e-9)
    for got, want, bound in zip(_outputs(s), _outputs(1.0), bounds, strict=True):
        assert np.max(np.abs(got - want)) < bound


@pytest.mark.parametrize("s", SCALES)
def test_rate_time_scaling_of_click_streams(s):
    det = Detuning.from_GHz(DW_GHZ, 942.5)
    want = run_cw(POINT, det, DURATION, seed=5)
    got = run_cw(_scaled(POINT, s), Detuning.from_GHz(s * DW_GHZ, 942.5), DURATION / s,
                 seed=5)
    assert len(want) > 1000
    assert np.array_equal(got.channel_codes, want.channel_codes)
    # Measured at most 4.8e-15 relative.
    assert np.max(np.abs(got.times_ns * s - want.times_ns) / want.times_ns) < 5e-13


def _exceptional_evolution(s):
    p = _scaled(SystemParams(gamma_x_GHz=8.5, gamma_m_GHz=24.1, gamma_b_GHz=8.5,
                             pump_GHz=0.0, n_max=3), s)
    p = replace(p, g_GHz=abs(p.gamma_m_GHz - p.gamma_x_GHz) / 4)
    model = dynamics.build_model(p, Detuning.zero(942.5))
    assert model.block(0).clusters != ()
    ket = np.eye(model.space.dim)[model.space.index(hilbert.EXCITON, 1)]
    return evolve(np.outer(ket, ket), p, np.linspace(0.0, 0.5, 11) / s, model=model)


@pytest.mark.parametrize("s", SCALES)
def test_rate_time_scaling_through_the_cluster(s):
    # At the exceptional point the damped modes propagate as one Schur
    # cluster.  Measured at most 2.4e-15.
    assert np.max(np.abs(_exceptional_evolution(s) - _exceptional_evolution(1.0))) < 3e-13


def _mirror_outputs(dw):
    det = Detuning.from_GHz(dw, 942.5)
    model = dynamics.build_model(POINT, det)
    grid = POINT.omega_m_GHz + OFFSETS  # symmetric about omega_m, also in rounding
    stream = run_cw(POINT, det, DURATION, seed=5)
    return ([emission_spectrum(POINT, det, grid, model=model).intensity,
             spectral_function(grid, POINT, det).intensity],
            [g2_cross(POINT, det, TAU, model=model).values, stream.times_ns,
             stream.channel_codes])


@pytest.mark.parametrize("dw", [12.0, 68.0])
def test_detuning_mirror(dw):
    (spectra, rest), (mirrored, mirrored_rest) = _mirror_outputs(dw), _mirror_outputs(-dw)
    for got, want in zip(spectra, mirrored, strict=True):
        assert np.array_equal(got, want[::-1])
    for got, want in zip(rest, mirrored_rest, strict=True):
        assert np.array_equal(got, want)
