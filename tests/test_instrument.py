import math

import numpy as np
import pytest

from cavqed import fitkit, hbt, trajectories
from cavqed.instrument import InstrumentConfig, convolve_spectrum, jitter_and_thin
from cavqed.polariton import Spectrum
from cavqed.trajectories import ClickStream


def _delta_spectrum(step=0.002, center=942.5, span=0.6):
    lam = np.arange(center - span, center + span, step)
    y = np.zeros_like(lam)
    y[np.argmin(np.abs(lam - center))] = 1.0
    return Spectrum(lam, y, "wavelength_nm")


class TestConvolveSpectrum:
    def test_delta_becomes_gaussian_of_instrument_width(self):
        s = convolve_spectrum(_delta_spectrum(), InstrumentConfig())
        peak = s.intensity.max()
        above = s.axis[s.intensity >= peak / 2]
        assert above[-1] - above[0] == pytest.approx(0.021, abs=0.0025)

    @staticmethod
    def _fwhm(x, y):
        half = y.max() / 2
        above = np.nonzero(y >= half)[0]
        i, j = above[0], above[-1]
        left = np.interp(half, [y[i - 1], y[i]], [x[i - 1], x[i]])
        right = np.interp(half, [y[j + 1], y[j]], [x[j + 1], x[j]])
        return right - left

    def test_lorentzian_becomes_voigt(self):
        lam = np.arange(941.5, 943.5, 0.001)
        h = 0.071 / 2
        y = h / np.pi / ((lam - 942.5) ** 2 + h**2)
        s = convolve_spectrum(Spectrum(lam, y, "wavelength_nm"), InstrumentConfig())
        # numerical-convolution oracle: 0.0771 nm apparent width
        assert self._fwhm(s.axis, s.intensity) == pytest.approx(0.0771, abs=5e-4)

    def test_zero_resolution_is_identity(self):
        s0 = _delta_spectrum()
        s = convolve_spectrum(s0, InstrumentConfig(spectral_resolution_pm=0.0))
        assert np.array_equal(s.intensity, s0.intensity)

    def test_area_preserved(self):
        # compactly supported line: no tail mass leaks past the grid edges
        lam = np.arange(941.0, 944.0, 0.001)
        y = np.exp(-0.5 * ((lam - 942.5) / 0.05) ** 2)
        s0 = Spectrum(lam, y, "wavelength_nm")
        s = convolve_spectrum(s0, InstrumentConfig())
        assert s.area() == pytest.approx(s0.area(), rel=1e-6)

    def test_area_leak_bounded_for_lorentzian_tails(self):
        lam = np.arange(941.0, 944.0, 0.001)
        h = 0.071 / 2
        y = h / np.pi / ((lam - 942.5) ** 2 + h**2)
        s0 = Spectrum(lam, y, "wavelength_nm")
        s = convolve_spectrum(s0, InstrumentConfig())
        # heavy tails lose a little mass at the window edges, nothing more
        assert s.area() == pytest.approx(s0.area(), rel=1e-4)

    def test_under_resolved_grid_rejected(self):
        s = _delta_spectrum(step=0.01)
        with pytest.raises(ValueError):
            convolve_spectrum(s, InstrumentConfig())

    @pytest.mark.parametrize("n_samples", [1, 20, 47])
    def test_response_as_wide_as_grid_rejected(self, n_samples):
        # 21 pm at a 0.002 nm step: a 47-sample kernel, 0.0892 nm at ±5 sigma;
        # np.convolve(mode="same") would return the kernel's length
        lam = 942.5 + 0.002 * np.arange(n_samples)
        s = Spectrum(lam, np.ones(n_samples), "wavelength_nm")
        with pytest.raises(ValueError, match=r"the 0\.021 nm instrument response.*"
                           rf"as wide as the {lam[-1] - lam[0]:.4g} nm grid"):
            convolve_spectrum(s, InstrumentConfig())
        wider = Spectrum(942.5 + 0.002 * np.arange(48), np.ones(48), "wavelength_nm")
        assert convolve_spectrum(wider, InstrumentConfig()).intensity.shape == (48,)

    def test_peak_ordering_preserved(self):
        lam = np.arange(941.5, 943.5, 0.001)
        y = (0.3 / (1 + ((lam - 942.3) / 0.03) ** 2)
             + 1.0 / (1 + ((lam - 942.7) / 0.03) ** 2))
        s = convolve_spectrum(Spectrum(lam, y, "wavelength_nm"), InstrumentConfig())
        i1 = np.argmin(np.abs(s.axis - 942.3))
        i2 = np.argmin(np.abs(s.axis - 942.7))
        assert s.intensity[i2] > s.intensity[i1]


def _stream(times):
    times = np.sort(np.asarray(times, float))
    return ClickStream(times, np.zeros(times.size, np.int16), ("cavity_loss",),
                       float(times[-1] + 1.0))


class TestJitterAndThin:
    def test_identity_configuration(self):
        s = _stream(np.arange(1.0, 1000.0, 1.0))
        out = jitter_and_thin(s, InstrumentConfig(efficiency=1.0, apd_irf_ps=0.0),
                              seed=0)
        assert np.array_equal(out.times_ns, s.times_ns)

    def test_thinning_is_rate_linear(self):
        times = hbt.poisson_stream(1e-2, 1e6, seed=1)
        s = _stream(times)
        out = jitter_and_thin(s, InstrumentConfig(efficiency=0.3, apd_irf_ps=0.0),
                              seed=2)
        n, expected = len(out), 0.3 * len(s)
        assert abs(n - expected) < 4 * math.sqrt(len(s) * 0.3 * 0.7)

    def test_thinned_poisson_stays_poissonian(self):
        times = hbt.poisson_stream(2e-2, 2e7, seed=3)
        out = jitter_and_thin(_stream(times),
                              InstrumentConfig(efficiency=0.5, apd_irf_ps=0.0),
                              seed=4)
        a, b = hbt.split_beam(out.times_ns, seed=5)
        h = hbt.start_stop_histogram(a, b, bin_ns=1.0, window_ns=30.0)
        g2 = hbt.normalize_g2(h, duration_ns=2e7)
        assert g2.values.mean() == pytest.approx(1.0, abs=0.02)
        assert np.all(np.abs(g2.values - 1.0) < 0.15)

    def test_g2_zero_invariant_under_thinning(self):
        # antibunched stream: alternating-channel emitter, minimum gap enforced
        rng = np.random.default_rng(6)
        times = np.cumsum(rng.exponential(5.0, size=200000) + 1.0)
        full = _stream(times)
        thin = jitter_and_thin(full, InstrumentConfig(efficiency=0.4,
                                                      apd_irf_ps=0.0), seed=7)
        for s in (full, thin):
            a, b = hbt.split_beam(s.times_ns, seed=8)
            h = hbt.start_stop_histogram(a, b, bin_ns=0.5, window_ns=20.0)
            g2 = hbt.normalize_g2(h, duration_ns=s.times_ns[-1])
            center = g2.values[np.abs(g2.tau_ns) < 0.5]
            assert np.all(center < 0.1)

    def test_jittered_decay_recovered_with_irf_fit(self):
        # sync offset 0.5 ns keeps the jittered rise inside the period window
        rng = np.random.default_rng(9)
        n_pulses, period, tau = 60000, 12.5, 0.060
        times = np.arange(n_pulses) * period + 0.5 + rng.exponential(tau, n_pulses)
        s = _stream(times)
        out = jitter_and_thin(s, InstrumentConfig(apd_irf_ps=70.0), seed=10)
        hist = trajectories.lifetime_from_clicks(out, "cavity_loss", period,
                                                 bin_ns=0.01)
        fit = fitkit.fit_decay(hist, "mono", irf_fwhm_ns=0.070)
        assert fit.params["tau_ns"] == pytest.approx(tau, rel=0.15)
        # without the response model the same data reads significantly slow
        # (measured ~23% at fixed sync; the tail slope caps the damage)
        naive = fitkit.fit_decay(hist, "mono", fix_t0=0.5)
        assert naive.params["tau_ns"] > 1.15 * tau

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InstrumentConfig(efficiency=0.0)
        with pytest.raises(ValueError):
            InstrumentConfig(efficiency=1.5)
        with pytest.raises(ValueError):
            InstrumentConfig(spectral_resolution_pm=-1.0)
