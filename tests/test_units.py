import math

import pytest
from hypothesis import given, strategies as st

from cavqed import units
from cavqed.units import Detuning


# (energy ueV, frequency GHz) pairs quoted for the measured device, with the
# precision each was quoted at.
QUOTED_PAIRS = [
    (100.0, 24.1, 0.1),
    (35.0, 8.5, 0.1),
    (76.0, 18.4, 0.1),
    (86.0, 20.7, 0.1),
    (0.06, 0.015, 0.001),
]


def test_energy_to_frequency_examples():
    assert units.energy_to_frequency(100.0) == pytest.approx(24.18, abs=0.005)
    assert units.energy_to_frequency(0.0) == 0.0
    assert units.energy_to_frequency(76.0) == pytest.approx(18.38, abs=0.005)


@pytest.mark.parametrize("e_ueV,f_GHz,quantum", QUOTED_PAIRS)
def test_quoted_pairs_consistent(e_ueV, f_GHz, quantum):
    # Each quoted pair must agree within 1.5% or round to the quoted figure.
    computed = units.energy_to_frequency(e_ueV)
    rel = abs(computed - f_GHz) / f_GHz
    rounds_ok = abs(computed - f_GHz) <= 0.5 * quantum
    assert rel < 0.015 or rounds_ok, (e_ueV, f_GHz, computed)


def test_wavelength_to_frequency():
    assert units.wavelength_to_frequency(942.5) == pytest.approx(318083, abs=1)
    assert units.wavelength_to_frequency(units.SPEED_OF_LIGHT_NM_GHZ) == pytest.approx(1.0)
    assert units.wavelength_to_frequency(1885.0) == pytest.approx(159041.5, abs=0.5)
    with pytest.raises(ValueError):
        units.wavelength_to_frequency(0.0)
    with pytest.raises(ValueError):
        units.wavelength_to_frequency(-5.0)


def test_detuning_conversion_examples():
    assert units.detuning_to_frequency(4.1, 942.5) == pytest.approx(1383.7, abs=0.1)
    assert units.detuning_to_frequency(0.0, 942.5) == 0.0
    # cavity FWHM: 0.0714 nm at 942.5 nm is 24.1 GHz
    assert units.detuning_to_frequency(0.0714, 942.5) == pytest.approx(24.1, abs=0.01)
    with pytest.raises(ValueError):
        units.detuning_to_frequency(1.0, 0.0)


@given(st.floats(min_value=1e-4, max_value=100.0),
       st.floats(min_value=100.0, max_value=5000.0))
def test_detuning_round_trip(dl, lam):
    dw = units.detuning_to_frequency(dl, lam)
    assert units.frequency_to_detuning(dw, lam) == pytest.approx(dl, rel=1e-9)


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_detuning_antisymmetric_and_linear(a, b):
    lam = 942.5
    assert units.detuning_to_frequency(-a, lam) == pytest.approx(
        -units.detuning_to_frequency(a, lam), abs=1e-12)
    assert units.detuning_to_frequency(a + b, lam) == pytest.approx(
        units.detuning_to_frequency(a, lam) + units.detuning_to_frequency(b, lam),
        rel=1e-12, abs=1e-12)


def test_lifetime_from_fwhm():
    assert units.lifetime_from_fwhm(0.015) == pytest.approx(10.61, abs=0.01)
    assert units.lifetime_from_fwhm(1.0 / (2 * math.pi)) == pytest.approx(1.0, rel=1e-12)
    assert units.lifetime_from_fwhm(24.1) == pytest.approx(6.6e-3, abs=1e-4)
    with pytest.raises(ValueError):
        units.lifetime_from_fwhm(0.0)


def test_lifetime_matches_background_quote():
    # 15 MHz background rate corresponds to ~11 ns (10.6 exactly).
    tau = units.lifetime_from_fwhm(0.015)
    assert abs(tau - 11.0) / 11.0 < 0.05


class TestDetuningType:
    def test_from_nm_consistency(self):
        d = Detuning.from_nm(4.1, 942.5)
        assert d.dw_GHz == pytest.approx(1383.7, abs=0.1)
        assert d.lambda_ref_nm == 942.5

    def test_from_GHz_round_trip(self):
        d = Detuning.from_GHz(24.1, 942.5)
        assert d.dl_nm == pytest.approx(0.0714, abs=2e-4)

    @pytest.mark.parametrize("args", [(math.nan, 942.5), (math.inf, 942.5), (4.1, math.nan)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            Detuning.from_nm(*args)
        with pytest.raises(ValueError, match="finite"):
            Detuning.from_GHz(*args)

    def test_sign_convention(self):
        # cavity blue of the exciton: both positive
        d = Detuning.from_nm(4.1, 942.5)
        assert d.dl_nm > 0 and d.dw_GHz > 0
