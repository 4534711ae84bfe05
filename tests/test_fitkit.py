import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import voigt_profile

from cavqed import fitkit, polariton
from cavqed.dynamics import NumericalError
from cavqed.fitkit import (
    fit_anticrossing,
    fit_damped_modes,
    fit_decay,
    fit_lifetime_curve,
    fit_lorentzians,
    levenberg_marquardt,
    peak_locations,
)
from cavqed.polariton import Spectrum, SystemParams, eigenmodes, purcell_lifetime
from cavqed.units import FWHM_TO_SIGMA, Detuning, wavelength_to_frequency


def lorentz(x, c, w, a):
    return (a / np.pi) * (w / 2) / ((x - c) ** 2 + (w / 2) ** 2)


def with_fd_jacobian(residual):
    """A levenberg_marquardt model from a residual, with a central-difference Jacobian."""
    return lambda p: (residual(p), lambda: fitkit._fd_jacobian(residual, p))


def captured_model(monkeypatch, fit):
    """The (model, x0) that ``fit()`` hands to levenberg_marquardt."""
    seen = {}
    real_lm = fitkit.levenberg_marquardt

    def spy(model, x0, n_data=None):
        seen.update(model=model, x0=x0)
        return real_lm(model, x0, n_data=n_data)

    monkeypatch.setattr(fitkit, "levenberg_marquardt", spy)
    fit()
    return seen["model"], seen["x0"]


def recorded_fit(monkeypatch, fit):
    """``fit()`` and its events in order: ("model", p, None) for each model
    call and ("jacobian", p, J) for each Jacobian call, p the model's point."""
    events = []
    real_lm = fitkit.levenberg_marquardt

    def spy(model, x0, n_data=None):
        def recorded(p):
            events.append(("model", p.copy(), None))
            r, jacobian = model(p)

            def recorded_jacobian():
                jac = jacobian()
                events.append(("jacobian", p.copy(), jac))
                return jac
            return r, recorded_jacobian
        return real_lm(recorded, x0, n_data=n_data)

    monkeypatch.setattr(fitkit, "levenberg_marquardt", spy)
    return fit(), events


class TestEngine:
    def test_residual_norm_never_increases(self):
        xs = np.linspace(-3, 3, 101)
        target = 2.0 * np.exp(-0.5 * ((xs - 0.4) / 0.7) ** 2)
        norms = []

        def residual(p):
            r = p[0] * np.exp(-0.5 * ((xs - p[1]) / p[2]) ** 2) - target
            norms.append(float(np.sqrt(r @ r)))
            return r

        x, cov, info = levenberg_marquardt(with_fd_jacobian(residual), np.array([1.0, 0.0, 1.0]))
        assert info["converged"]
        assert x == pytest.approx([2.0, 0.4, 0.7], rel=1e-6)
        # norms recorded at accepted iterates are non-increasing; rejected
        # probes may be larger, so compare the running minimum trace
        running = np.minimum.accumulate(norms)
        assert np.all(np.diff(running) <= 1e-12)

    def test_convergence_from_perturbed_starts(self):
        xs = np.linspace(-5, 5, 201)
        truth = np.array([1.3, -0.7, 1.1])
        target = truth[0] * np.exp(-0.5 * ((xs - truth[1]) / truth[2]) ** 2)

        def residual(p):
            return p[0] * np.exp(-0.5 * ((xs - p[1]) / p[2]) ** 2) - target

        for sign in (-1, 1):
            x0 = truth * (1 + 0.2 * sign)
            x, _, info = levenberg_marquardt(with_fd_jacobian(residual), x0)
            assert np.abs(x / truth - 1).max() < 1e-6

    def test_stall_is_not_reported_as_converged(self):
        # A negated Jacobian makes every damped step climb, so no step is ever
        # accepted: the fit stalls at x0, far from the truth (2, 0.3).
        t = np.linspace(0.0, 2.0, 41)
        target = 2.0 * np.exp(-t / 0.3)

        def residual(p):
            return p[0] * np.exp(-t / p[1]) - target

        def negated_jacobian(p):
            e = np.exp(-t / p[1])
            return -np.column_stack([e, p[0] * t * e / p[1] ** 2])

        x0 = np.array([1.0, 0.5])
        x, _, info = levenberg_marquardt(lambda p: (residual(p), lambda: negated_jacobian(p)),
                                         x0)
        assert np.array_equal(x, x0)
        assert not info["converged"]
        assert "minimum" not in info["message"]

    @pytest.mark.parametrize("fit", [
        lambda: fit_lorentzians(_voigt_triplet(), 3, gaussian_fwhm=0.021),
        lambda: fit_decay(_irf_decay_counts(np.random.default_rng(10)), "mono",
                          irf_fwhm_ns=0.07),
    ], ids=["voigt", "irf-decay"])
    def test_jacobian_asked_for_only_at_the_last_residual_point(self, monkeypatch, fit):
        result, events = recorded_fit(monkeypatch, fit)
        assert result.converged and result.n_iterations > 1
        calls = [i for i, (kind, _, _) in enumerate(events) if kind == "jacobian"]
        assert len(calls) == result.n_iterations
        # The first call is at x0; each is for the point of the model call
        # just before it, so a rejected trial never gets a Jacobian.
        assert calls[0] == 1
        for i in calls:
            assert events[i - 1][0] == "model"
            assert np.array_equal(events[i][1], events[i - 1][1])


class TestLorentzians:
    def test_noiseless_single_peak_exact(self):
        x = np.linspace(900, 910, 901)
        y = lorentz(x, 905.2, 0.8, 2.3) + 0.05
        r = fit_lorentzians(Spectrum(x, y, "wavelength_nm"), 1)
        assert r.params["center_1"] == pytest.approx(905.2, abs=1e-8)
        assert r.params["fwhm_1"] == pytest.approx(0.8, rel=1e-8)
        assert r.params["area_1"] == pytest.approx(2.3, rel=1e-8)
        assert r.params["background"] == pytest.approx(0.05, abs=1e-8)

    def test_triplet_with_noise_recovers_central_fraction(self):
        rng = np.random.default_rng(1)
        x = np.linspace(942.0, 943.0, 1201)
        y = (lorentz(x, 942.447, 0.048, 0.275) + lorentz(x, 942.5, 0.0714, 0.45)
             + lorentz(x, 942.553, 0.048, 0.275))
        noisy = y * (1 + 0.01 * rng.standard_normal(x.size))
        r = fit_lorentzians(Spectrum(x, noisy, "wavelength_nm"), 3)
        assert r.converged
        fracs = sorted(r.derived[f"area_fraction_{k}"] for k in (1, 2, 3))
        assert fracs[-1] == pytest.approx(0.45, abs=0.02)

    def test_resolved_doublet_centers_within_2pm(self):
        x = np.linspace(942.0, 943.0, 2001)
        y = (lorentz(x, 942.5 - 0.0535, 0.048, 1.0)
             + lorentz(x, 942.5 + 0.0535, 0.048, 1.0))
        r = fit_lorentzians(Spectrum(x, y, "wavelength_nm"), 2)
        centers = sorted([r.params["center_1"], r.params["center_2"]])
        assert centers[0] == pytest.approx(942.4465, abs=0.002)
        assert centers[1] == pytest.approx(942.5535, abs=0.002)

    def test_too_few_points_rejected(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="not enough samples for the requested peak"):
            fit_lorentzians(Spectrum(x, np.ones(5), "wavelength_nm"), 2)

    @pytest.mark.parametrize("gaussian_fwhm", [0.0, 0.6, 2.0])
    def test_analytic_jacobian_matches_central_differences(self, monkeypatch, gaussian_fwhm):
        x = np.linspace(-10.0, 10.0, 801)
        p = np.array([0.1, -3.0, 1.2, 2.0, 0.5, -0.8, 1.0, 4.0, 2.0, 0.7])
        sigma_g = gaussian_fwhm * FWHM_TO_SIGMA
        y = p[0] + sum(a * voigt_profile(x - c, sigma_g, abs(w) / 2.0)
                       for c, w, a in p[1:].reshape(3, 3))
        names = ["background"] + [f"{name}_{k}" for k in (1, 2, 3)
                                  for name in ("center", "fwhm", "area")]
        model, _ = captured_model(monkeypatch, lambda: fit_lorentzians(
            Spectrum(x, y, "wavelength_nm"), 3, init=dict(zip(names, p)),
            gaussian_fwhm=gaussian_fwhm))
        fd = fitkit._fd_jacobian(lambda q: model(q)[0], p)
        np.testing.assert_allclose(model(p)[1](), fd, rtol=1e-6, atol=1e-9)


def _voigt_triplet():
    """A noisy three-line Voigt spectrum on a 2,365-point grid, 21 pm response."""
    x = np.linspace(941.9, 943.1, 2365)
    sigma_g = 0.021 * FWHM_TO_SIGMA
    y = 0.01 + sum(a * voigt_profile(x - c, sigma_g, w / 2.0) for c, w, a in
                   ((942.447, 0.048, 0.275), (942.5, 0.0714, 0.45), (942.553, 0.048, 0.275)))
    y = y * (1 + 0.01 * np.random.default_rng(8).standard_normal(x.size))
    return Spectrum(x, y, "wavelength_nm")


def _irf_decay_counts(rng):
    """A decay of lifetime 0.5 ns from 0.3 ns on a 0.5-count background, 20 ps bins."""
    t = np.arange(0.0, 3.0, 0.02) + 0.01
    onset = np.clip(t - 0.3, 0, None)
    return t, rng.poisson(0.5 + 150.0 * np.exp(-onset / 0.5) * (t >= 0.3))


class TestVoigtFaddeevaReuse:
    def test_jacobian_adds_no_faddeeva_evaluation(self, monkeypatch):
        wofz_calls = []
        real_wofz = fitkit.wofz

        def counting_wofz(z):
            wofz_calls.append(z)
            return real_wofz(z)

        monkeypatch.setattr(fitkit, "wofz", counting_wofz)
        r, events = recorded_fit(monkeypatch, lambda: fit_lorentzians(
            _voigt_triplet(), 3, gaussian_fwhm=0.021))
        kinds = [kind for kind, _, _ in events]
        assert r.converged and kinds.count("jacobian") > 1
        assert len(wofz_calls) == 3 * kinds.count("model")

    def test_reused_faddeeva_gives_the_recomputed_jacobian_bit_for_bit(self, monkeypatch):
        spectrum = _voigt_triplet()
        sigma_g = 0.021 * FWHM_TO_SIGMA
        r, events = recorded_fit(monkeypatch, lambda: fit_lorentzians(
            spectrum, 3, gaussian_fwhm=0.021))
        reused = [np.array_equal(jac, fitkit._peaks_jacobian(
                      p, sigma_g, fitkit._lines(spectrum.axis, p, 3, sigma_g)))
                  for kind, p, jac in events if kind == "jacobian"]
        assert r.converged and reused and all(reused)

    # The model rounds z = (x - c + i gamma) / (sigma sqrt 2) differently from
    # voigt_profile's (x / sigma) / sqrt 2, and where exp(-z^2) dominates Re w
    # that rounding moves it by about 4 |z|^2 ulp: |x - c| <= 15 sigma keeps
    # that under 6e-14.  gamma stays above the 5e-13 floor on the half-width.
    @given(sigma=st.floats(1e-4, 1e2), gamma_ratio=st.floats(1e-9, 1e4),
           center=st.floats(-1e3, 1e3),
           offsets=st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=20))
    def test_model_is_voigt_profile(self, sigma, gamma_ratio, center, offsets):
        gamma = max(sigma * gamma_ratio, 1e-12)
        x = center + sigma * np.array(offsets)
        expected = voigt_profile(x - center, sigma, gamma)
        [(f, _)] = fitkit._lines(x, np.array([0.0, center, 2.0 * gamma, 1.0]), 1, sigma)
        np.testing.assert_allclose(f.real, expected, rtol=1e-13, atol=0.0)


def synth_anticross(g, dl_list, lambda_x=942.5, gx=8.5, gm=24.1, seed=None,
                    noise_nm=0.0):
    base = SystemParams(lambda_x_nm=lambda_x, gamma_x_GHz=gx, gamma_m_GHz=gm,
                        gamma_b_GHz=0.0, g_GHz=g)
    rows_dl, rows_lam = [], []
    for dl in dl_list:
        p = replace(base, lambda_m_nm=lambda_x - dl)
        m = eigenmodes(p, Detuning.from_nm(dl, lambda_x))
        for om in (m.omega_plus_GHz, m.omega_minus_GHz):
            rows_dl.append(dl)
            rows_lam.append(wavelength_to_frequency(1.0) / om)
    dl = np.array(rows_dl)
    lam = np.array(rows_lam)
    if noise_nm:
        rng = np.random.default_rng(seed)
        lam = lam + noise_nm * rng.standard_normal(lam.size)
    return dl, lam


class TestAnticrossing:
    def test_recovers_g_with_one_percent_noise(self):
        dl, lam = synth_anticross(18.4, np.linspace(-0.35, 0.35, 9),
                                  seed=2, noise_nm=0.01 * 0.1066)
        r = fit_anticrossing(dl, lam)
        assert r.converged
        assert r.params["g_GHz"] == pytest.approx(18.4, rel=0.02)
        assert r.derived["min_splitting_nm"] == pytest.approx(0.107, abs=0.004)

    def test_crossing_lines_give_zero_g(self):
        dl, lam = synth_anticross(0.0, np.linspace(-0.35, 0.35, 9),
                                  seed=3, noise_nm=0.01 * 0.1066)
        r = fit_anticrossing(dl, lam)
        assert abs(r.params["g_GHz"]) < 0.5
        # g has a zero Jacobian column here, so J'J is singular: no stderr
        # may claim that an undetermined parameter is exact
        assert all(err != 0.0 for err in r.stderr.values())

    def test_single_branch_rejected(self):
        dl, lam = synth_anticross(18.4, np.linspace(0.2, 0.4, 8))
        keep = lam > 942.5  # red branch only, 8 points
        with pytest.raises(ValueError, match="data lie entirely on one polariton branch"):
            fit_anticrossing(dl[keep], lam[keep])

    def test_single_detuning_rejected(self):
        with pytest.raises(ValueError, match="all points at a single detuning"):
            fit_anticrossing(np.zeros(8), 942.5 + 0.01 * np.arange(8))

    @pytest.mark.parametrize("g,gx,gm", [
        (18.4, 8.5, 24.1),     # paper values
        (-18.4, -8.5, 24.1),   # negative g and gamma_x, as a free fit may reach
        (18.4, 40.0, 24.1),    # exciton broader than the cavity
        (2.0, 8.5, 24.1),      # weak coupling
        (0.0, 24.1, 24.1),     # uncoupled and degenerate
    ])
    def test_array_branches_match_per_point_eigenmodes(self, g, gx, gm):
        dl = np.concatenate([np.linspace(-0.7, 0.7, 41), [0.0, 1e-9]])
        blue, red = fitkit._branch_wavelengths(dl, g, 942.5, gx, gm)
        for i, d in enumerate(dl):
            p = SystemParams(lambda_x_nm=942.5, lambda_m_nm=942.5 - d, g_GHz=abs(g),
                             gamma_x_GHz=abs(gx), gamma_m_GHz=abs(gm), gamma_b_GHz=0.0)
            m = eigenmodes(p, Detuning.from_nm(d, 942.5))
            assert blue[i] == wavelength_to_frequency(1.0) / m.omega_plus_GHz
            assert red[i] == wavelength_to_frequency(1.0) / m.omega_minus_GHz

    def test_nonpositive_cavity_wavelength_rejected(self):
        with pytest.raises(ValueError):
            fitkit._branch_wavelengths(np.array([0.0, 942.5]), 18.4, 942.5, 8.5, 24.1)
        with pytest.raises(ValueError):
            fitkit._branch_wavelengths(np.array([0.0, 0.1]), 18.4, -1.0, 8.5, 24.1)
        with pytest.raises(ValueError):
            polariton._complex_eigenvalues(np.array([942.5, -1.0]), 0.0, 18.4, 8.5, 24.1)


class TestLifetimeCurve:
    P = SystemParams(g_GHz=20.7, gamma_m_GHz=24.1, gamma_b_GHz=0.015)

    def _curve(self, dls):
        return np.array([purcell_lifetime(self.P, Detuning.from_nm(d, 942.5)).tau_ns
                         for d in dls])

    def test_exact_three_points(self):
        dls = np.array([4.1, 1.26, 0.5])
        taus = self._curve(dls)
        # forward values: 7.80, 2.21, 0.42 ns
        assert taus == pytest.approx([7.804, 2.208, 0.4235], abs=0.002)
        r = fit_lifetime_curve(dls, taus, 24.1, 942.5)
        assert r.params["g_GHz"] == pytest.approx(20.7, rel=1e-6)
        assert r.params["gamma_b_GHz"] == pytest.approx(0.015, rel=1e-6)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(4)
        dls = np.linspace(0.3, 4.1, 9)
        taus = self._curve(dls) * (1 + 0.05 * rng.standard_normal(9))
        r = fit_lifetime_curve(dls, taus, 24.1, 942.5)
        assert r.params["g_GHz"] == pytest.approx(20.7, rel=0.05)
        assert r.params["gamma_b_GHz"] == pytest.approx(0.015, rel=0.15)

    def test_flat_data_gives_zero_g(self):
        dls = np.linspace(0.5, 4.0, 8)
        taus = np.full(8, 10.6)
        r = fit_lifetime_curve(dls, taus, 24.1, 942.5)
        assert abs(r.params["g_GHz"]) < 2.0 * r.stderr["g_GHz"] + 0.5

    def test_same_detuning_rejected(self):
        with pytest.raises(ValueError, match=r"all points at the same \|detuning\|"):
            fit_lifetime_curve(np.full(5, 2.0), np.linspace(1, 2, 5), 24.1, 942.5)


class TestDecay:
    def test_exponential_lifetime_within_3pct(self):
        rng = np.random.default_rng(5)
        times = rng.exponential(7.6, size=10000)
        edges = np.linspace(0, 40, 401)
        counts, _ = np.histogram(times, bins=edges)
        centers = 0.5 * (edges[1:] + edges[:-1])
        r = fit_decay((centers, counts), "mono", fix_t0=0.0)
        assert r.params["tau_ns"] == pytest.approx(7.6, rel=0.03)

    def test_flat_background_only(self):
        rng = np.random.default_rng(6)
        counts = rng.poisson(40.0, size=200)
        centers = np.linspace(0, 20, 200)
        r = fit_decay((centers, counts), "mono",
                      init={"amplitude": 5.0, "tau_ns": 3.0, "background": 40.0},
                      fix_t0=0.0)
        assert abs(r.params["amplitude"]) < 3.0 * (r.stderr["amplitude"] + 1.0)

    def test_bi_exponential_degenerate_flagged(self):
        rng = np.random.default_rng(7)
        times = rng.exponential(5.0, size=50000)
        edges = np.linspace(0, 30, 301)
        counts, _ = np.histogram(times, bins=edges)
        centers = 0.5 * (edges[1:] + edges[:-1])
        r = fit_decay((centers, counts), "bi", fix_t0=0.0,
                      init={"tau1_ns": 4.5, "tau2_ns": 5.5})
        if abs(r.params["tau1_ns"] - r.params["tau2_ns"]) < 0.05 * 5.0:
            assert r.derived.get("degenerate")

    def test_recovery_dip_with_negative_amplitude(self):
        # g2-style recovery: counts = plateau * (1 - exp(-t/tau))
        rng = np.random.default_rng(8)
        t = np.linspace(0.125, 30, 120)
        mu = 400 * (1 - np.exp(-t / 1.3))
        counts = rng.poisson(mu)
        r = fit_decay((t, counts), "mono", fix_t0=0.0,
                      init={"amplitude": -400.0, "tau_ns": 1.0,
                            "background": 400.0})
        assert r.params["tau_ns"] == pytest.approx(1.3, rel=0.1)
        assert r.params["amplitude"] < 0

    def test_uncertainty_scales_with_counts(self):
        rng = np.random.default_rng(9)
        errs = []
        for n in (4000, 16000):
            times = rng.exponential(7.6, size=n)
            edges = np.linspace(0, 40, 201)
            counts, _ = np.histogram(times, bins=edges)
            centers = 0.5 * (edges[1:] + edges[:-1])
            r = fit_decay((centers, counts), "mono", fix_t0=0.0)
            errs.append(r.stderr["tau_ns"])
        assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.4)

    @pytest.mark.parametrize("fix_t0", [None, 0.3], ids=["free-t0", "fixed-t0"])
    @pytest.mark.parametrize("irf_fwhm_ns", [None, 0.07], ids=["no-irf", "irf"])
    @pytest.mark.parametrize("model", ["mono", "bi"])
    def test_analytic_jacobian_matches_central_differences(self, monkeypatch, model,
                                                          irf_fwhm_ns, fix_t0):
        rng = np.random.default_rng(10)
        t, counts = _irf_decay_counts(rng)
        init = {"t0_ns": 0.3} if irf_fwhm_ns is None and fix_t0 is None else None
        evaluate, x0 = captured_model(monkeypatch, lambda: fit_decay(
            (t, counts), model, irf_fwhm_ns=irf_fwhm_ns, init=init, fix_t0=fix_t0))
        points = [x0 * (1.0 + 0.1 * rng.standard_normal(x0.size)) for _ in range(4)]
        # The background sits last: below the 1e-9 mean floor the tail bins
        # have flat deviance rows and live penalty rows.
        below = x0.copy()
        below[-1] = -0.4
        points.append(below)
        for p in points:
            analytic = evaluate(p)[1]()
            fd = fitkit._fd_jacobian(lambda q: evaluate(q)[0], p)
            scale = np.max(np.abs(fd), axis=0)
            assert np.all(np.abs(analytic - fd) <= 1e-5 * scale)
        assert np.any(evaluate(below)[1]()[t.size:] != 0.0)

    @staticmethod
    def _sparse_fast_decay(seed):
        t = np.arange(0.05, 1.0, 0.01) + 0.005
        return t, np.random.default_rng(seed).poisson(40 * np.exp(-(t - 0.05) / 0.07))

    def test_sparse_fast_decay_converges(self):
        # Mostly empty bins: the rounding noise of the cost must not keep the
        # fit from stopping.  Seed 3 takes 122 iterations, the mean over
        # seeds 0-39 is 27.
        assert fit_decay(self._sparse_fast_decay(3), "mono").converged
        iterations = [fit_decay(self._sparse_fast_decay(seed), "mono").n_iterations
                      for seed in range(40)]
        assert np.mean(iterations) < 40.0


def _decay_counts():
    t = np.arange(0.0, 20.0, 0.1) + 0.05
    return t, np.random.default_rng(11).poisson(2.0 + 300.0 * np.exp(-t / 3.0))


def _one_line():
    x = np.linspace(0.0, 10.0, 101)
    return Spectrum(x, lorentz(x, 5.0, 2.0, 1.0), "wavelength_nm")


class TestInit:
    @pytest.mark.parametrize("call,named", [
        (lambda: fit_anticrossing(*synth_anticross(18.4, np.linspace(-0.35, 0.35, 9)),
                                  init={"g_GHz": 2.0, "lambda_x_nm": 900.0, "bogus": 1}),
         ["unknown key 'g_GHz'", "unknown key 'lambda_x_nm'", "unknown key 'bogus'"]),
        (lambda: fit_decay(_decay_counts(), "mono", init={"tau1_ns": 9.0, "bogus": 3}),
         ["unknown key 'tau1_ns'", "unknown key 'bogus'"]),
        (lambda: fit_lorentzians(_one_line(), 1, init={"center_1": 5.0, "fwhm_1": 2.0}),
         ["missing key 'area_1'"]),
        (lambda: fit_decay(_decay_counts(), "mono", init={"t0_ns": 0.1}, fix_t0=0.0),
         ["t0_ns is held at fix_t0"]),
    ], ids=["anticrossing-unknown", "decay-unknown", "lorentzians-missing",
            "decay-fixed-t0"])
    def test_keys_outside_the_fit_rejected(self, call, named):
        with pytest.raises(ValueError) as err:
            call()
        for text in named:
            assert text in str(err.value)

    def test_given_start_values_are_used_unchanged(self, monkeypatch):
        starts = []
        real_lm = fitkit.levenberg_marquardt

        def spy(model, x0, n_data=None):
            starts.append(x0.copy())
            return real_lm(model, x0, n_data=n_data)

        monkeypatch.setattr(fitkit, "levenberg_marquardt", spy)
        fit_decay(_decay_counts(), "bi")
        fit_decay(_decay_counts(), "bi", init={"amplitude_1": 1000.0, "tau1_ns": 2.0})
        from_data, given = starts
        assert list(given[:2]) == [1000.0, 2.0]
        # amplitude_2, tau2_ns and the background keep their data-derived starts
        assert np.array_equal(given[2:], from_data[2:])


def test_damped_modes_exact():
    dt = 0.01
    j = np.arange(200)
    s_true = np.array([-0.8 - 2j * math.pi * 30.0, -2.5 + 2j * math.pi * 12.0])
    v = (0.7 * np.exp(s_true[0] * j * dt) + 0.1j * np.exp(s_true[1] * j * dt))
    s = fit_damped_modes(v, dt, 2)
    assert np.sort(s.imag) == pytest.approx(np.sort(s_true.imag), rel=1e-9)
    assert np.sort(s.real) == pytest.approx(np.sort(s_true.real), rel=1e-9)


def test_peak_locations_orders_and_refines():
    x = np.linspace(0, 10, 2001)
    y = lorentz(x, 3.0, 0.5, 1.0) + lorentz(x, 7.2, 0.5, 0.7)
    got = peak_locations(x, y, 2)
    assert got == pytest.approx([3.0, 7.2], abs=0.02)
    with pytest.raises(NumericalError, match="found only 2 of 5 requested peaks"):
        peak_locations(x, y, 5)


def test_peak_locations_ranks_close_lines_above_noise_ripples():
    # lines 0.042 nm apart; the 1% noise leaves ripples on the central line's
    # top that stand taller than the side lines, whose noise-free maxima sit
    # at 942.4634 and 942.5366
    rng = np.random.default_rng(1)
    x = np.linspace(942.0, 943.0, 2001)
    y = (lorentz(x, 942.458, 0.048, 0.275) + lorentz(x, 942.5, 0.0714, 0.45)
         + lorentz(x, 942.542, 0.048, 0.275))
    got = peak_locations(x, y * (1 + 0.01 * rng.standard_normal(x.size)), 3)
    assert got == pytest.approx([942.4634, 942.5, 942.5366], abs=0.005)
