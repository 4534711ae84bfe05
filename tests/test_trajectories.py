import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from cavqed import dynamics, fitkit, hilbert, trajectories
from cavqed.polariton import SystemParams, purcell_lifetime
from cavqed.trajectories import PulseConfig, run_cw, run_pulsed
from cavqed.units import Detuning

TWO_PI = 2 * math.pi
RES = Detuning.zero(942.5)

TWO_LEVEL = SystemParams(g_GHz=0.0, gamma_x_GHz=0.15, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.15, pump_GHz=0.01, n_max=1)


def test_reproducible_streams():
    a = run_cw(TWO_LEVEL, RES, duration_ns=2e4, seed=42)
    b = run_cw(TWO_LEVEL, RES, duration_ns=2e4, seed=42)
    assert np.array_equal(a.times_ns, b.times_ns)
    assert np.array_equal(a.channel_codes, b.channel_codes)
    c = run_cw(TWO_LEVEL, RES, duration_ns=2e4, seed=43)
    assert not np.array_equal(a.times_ns, c.times_ns)


def test_cw_click_rate_matches_steady_state():
    duration = 1e6
    stream = run_cw(TWO_LEVEL, RES, duration_ns=duration, seed=42)
    n = stream.times("exciton_radiative").size
    pop = 0.01 / 0.16
    expected = pop * TWO_PI * 0.15 * duration
    assert abs(n - expected) < 3.0 * math.sqrt(expected)


@given(n_max=st.integers(1, 3), dl=st.floats(-4.1, 4.1),
       pump=st.floats(0.005, 0.05))
def test_click_counts_match_steady_state_flux(n_max, dl, pump):
    det = Detuning.from_nm(dl, 942.5)
    p = SystemParams(pump_GHz=pump, n_max=n_max).with_detuning(det)
    model = dynamics.build_model(p, det)
    rho = dynamics.steady_state(p, model=model)
    # about 300 photons after a transient of at most a few exciton lifetimes
    discard = 100.0
    duration = discard + 300.0 / (TWO_PI * pump)
    stream = run_cw(p, det, duration_ns=duration, seed=1, discard_ns=discard)
    for c in model.channels:
        if c.label in trajectories.DETECTED:
            j = c.jump_operator
            want = dynamics.expectation(j.conj().T @ j, rho) * (duration - discard)
            got = stream.times(c.label).size
            assert abs(got - want) < 5.0 * math.sqrt(max(want, 1.0)), c.label


def test_no_pump_rejected():
    p = SystemParams(pump_GHz=0.0)
    with pytest.raises(ValueError):
        run_cw(p, RES, duration_ns=100.0, seed=1)


def test_ensemble_matches_master_equation():
    p = SystemParams(g_GHz=18.4, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.015, pump_GHz=0.05, n_max=1)
    model = dynamics.build_model(p, RES)
    sp = model.space
    t = np.linspace(0.0, 2.0, 11)
    mean, err = trajectories.ensemble_populations(
        p, RES, sp.projectors["exciton"], t, n_trajectories=3000, seed=11)
    ground = np.eye(sp.dim, dtype=complex)[sp.index(hilbert.GROUND, 0)]
    rho0 = np.outer(ground, ground.conj())
    rhos = dynamics.evolve(rho0, p, t, model=model)
    exact = np.array([dynamics.expectation(sp.projectors["exciton"], r)
                      for r in rhos])
    z = np.abs(mean[1:] - exact[1:]) / np.maximum(err[1:], 1e-12)
    assert np.max(z) < 4.0


# g = |gamma_x - gamma_m|/4 with no dephasing: a polariton pair of the
# no-click generator coalesces and its eigenvector matrix is numerically
# singular, so the engine runs on the model's expm fallback
EXCEPTIONAL = SystemParams(g_GHz=abs(8.5 - 24.1) / 4, gamma_x_GHz=8.5,
                           gamma_m_GHz=24.1, gamma_b_GHz=8.5, pump_GHz=0.0, n_max=3)


def test_ill_conditioned_drift_matches_expm():
    engine = trajectories._Engine(dynamics.build_model(EXCEPTIONAL, RES))
    block = engine.block
    assert block.cond > dynamics._COND_MAX
    x = engine.sandwich(engine.model.space.sigma.conj().T) @ engine.vecs @ engine.ground
    c = engine.vinv @ x
    assert math.exp(engine._levels(c, 0.0)[0]) == pytest.approx(1.0, abs=1e-12)
    trace = (engine._i == engine._j).astype(float)
    for dt in (0.01, 0.1):
        exact = scipy.linalg.expm(block.gen * dt) @ x
        p, dp, ddp = (trace @ np.linalg.matrix_power(block.gen, k) @ exact
                      for k in range(3))
        y, (log_p, dlog, curv) = engine.evaluate(c, dt)
        assert abs(math.exp(log_p) - p.real) < 1e-9
        assert abs(dlog - (dp / p).real) < 1e-9 * abs(dp / p)
        assert abs(curv - (ddp / p - (dp / p) ** 2).real) < 1e-9 * abs(ddp / p)
        state = engine.vecs @ y * math.exp(engine._slowest * dt)
        assert np.max(np.abs(state - exact)) < 1e-9


class _Reference:
    """Reference engine on block entries x: rtsafe on log P over numpy
    arrays, with P(0) evaluated and no curvature stop.  It has the interface
    that run_cw and run_pulsed use, with V = I."""

    def __init__(self, model):
        self.model = model
        idx, gen = model.generator(0)
        self._i, self._j = np.divmod(idx, model.space.dim)
        self.trace = (self._i == self._j).astype(float)
        ops = {c.label: c.jump_operator for c in model.channels}
        self.jumps = [self.sandwich(ops[label]) for label in trajectories.DETECTED]
        self.block = dynamics._decompose(idx, gen - sum(self.jumps))
        self.emission = np.array([self.trace @ j for j in self.jumps])
        self._probe = np.vstack([self.trace, -self.emission.sum(axis=0)])
        if self.block.vinv is not None:
            self._modal = self._probe @ self.block.vecs
            self._slowest = float(np.max(self.block.evals.real))
            self._shifted = self.block.evals - self._slowest
        ground = model.space.index(hilbert.GROUND, 0)
        self.ground = ((self._i == ground) & (self._j == ground)).astype(complex)
        self.vecs = np.eye(idx.size)

    def sandwich(self, op):
        return dynamics._kron_block(op, op.conj(), self._i, self._j)

    def to_modes(self, m):
        return m

    def no_click(self, x):
        b = self.block
        if b.vinv is None:
            def state(s):
                return b.propagate(x, (s,))[0]

            def prob(s):
                p, dp = (self._probe @ state(s)).real
                return (math.log(p), dp / p) if p > 0 else (-math.inf, 0.0)
            return prob, state
        c = b.vinv @ x
        modal = self._modal * c
        slowest, shifted = self._slowest, self._shifted

        def state(s):
            return b.vecs @ (c * np.exp(b.evals * s))

        def prob(s):
            q, dq = (modal @ np.exp(shifted * s)).real
            return (slowest * s + math.log(q), dq / q) if q > 0 else (-math.inf, 0.0)
        return prob, state

    @staticmethod
    def click_time(prob, log_u, seg, end):
        lo, hi = 0.0, seg
        start = prob(0.0)
        s, (f, df) = (0.0, start) if start[1] < 0 else (seg, end)
        f -= log_u
        step = before = math.inf
        while True:
            newton = (df < 0 and abs(2.0 * f) <= abs(before * df)
                      and ((s - hi) * df - f) * ((s - lo) * df - f) <= 0)
            before = step
            if newton:
                step = f / df
                s -= step
            else:
                step = 0.5 * (hi - lo)
                s = lo + step
            if abs(step) <= 1e-12 * s:
                return s
            f, df = prob(s)
            f -= log_u
            if f > 0:
                lo = s
            else:
                hi = s

    def advance(self, rng, x, u, t, t_end, times, codes):
        while True:
            seg = t_end - t
            prob, state = self.no_click(x)
            end = prob(seg)
            log_u = math.log(u)
            if end[0] >= log_u:
                p_end = math.exp(end[0])
                return state(seg) / p_end, u / p_end
            s = self.click_time(prob, log_u, seg, end)
            x = state(s)
            weights = (self.emission @ x).real
            k = int(np.searchsorted(np.cumsum(weights), rng.random() * weights.sum(),
                                    side="right"))
            x = self.jumps[k] @ x / weights[k]
            t += s
            times.append(t)
            codes.append(k)
            u = rng.random()


# Configurations of the click-count checks below: the pulsed lifetime runs
# near resonance (acceptance test 3), the single-photon source (test 6ii)
# and the feeder cross-correlation (test 6iii).
STRONG = SystemParams(g_GHz=20.7, pump_GHz=0.0, n_max=3)
STRONG_PULSES = PulseConfig(rep_rate_MHz=80.0, mean_captures_per_pulse=1.0,
                            capture_delay_ns=0.06, n_pulses=1000)
SINGLE_DET = Detuning.from_nm(4.1, 942.5)
SINGLE = SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_b_GHz=0.2, pump_GHz=0.0,
                      n_max=1).with_detuning(SINGLE_DET)
SINGLE_PULSES = PulseConfig(rep_rate_MHz=40.0, mean_captures_per_pulse=0.3,
                            capture_delay_ns=0.06, n_pulses=3000,
                            allow_recapture=False)
FEEDER_DET = Detuning.from_nm(4.1, 942.5)
FEEDER = SystemParams(lambda_x_nm=946.6, g_GHz=20.7, gamma_x_GHz=0.015,
                      gamma_m_GHz=24.1, gamma_b_GHz=0.015, pump_GHz=0.001,
                      n_max=1, emitter_levels=3, feeder_pump_GHz=0.01,
                      feeder_decay_GHz=1.0 / (TWO_PI * 1.3))

REFERENCE_RUNS = {
    "pulsed strong coupling": lambda: run_pulsed(STRONG, RES, STRONG_PULSES, seed=11),
    "single photon": lambda: run_pulsed(SINGLE, SINGLE_DET, SINGLE_PULSES, seed=3),
    "feeder cw": lambda: run_cw(FEEDER, FEEDER_DET, duration_ns=2e5, seed=64),
    # on the expm fallback (see above); a CW pump would lift the coalescence
    "exceptional point": lambda: run_pulsed(EXCEPTIONAL, RES, PulseConfig(n_pulses=400),
                                            seed=5),
}


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_engine_matches_reference(monkeypatch, name):
    # The modal state, exact start and curvature stop change only rounding
    # and where inside the 1e-12 tolerance the root solve stops.
    run = REFERENCE_RUNS[name]
    got = run()
    with monkeypatch.context() as m:
        m.setattr(trajectories, "_Engine", _Reference)
        want = run()
    assert len(got) > 100
    assert np.array_equal(got.channel_codes, want.channel_codes)
    np.testing.assert_allclose(got.times_ns, want.times_ns, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name,bound", [("pulsed strong coupling", 6.0),
                                        ("single photon", 1.1), ("feeder cw", 4.0)])
def test_evaluations_per_click(monkeypatch, name, bound):
    # Each pass of advance evaluates P once at the end of its stretch; every
    # further evaluation is a step of the root solve.
    calls = {"evaluate": 0, "advance": 0}

    def counted(method):
        def wrapper(*args, **kwargs):
            calls[method.__name__] += 1
            return method(*args, **kwargs)
        return wrapper

    for method in (trajectories._Engine.evaluate, trajectories._Engine.advance):
        monkeypatch.setattr(trajectories._Engine, method.__name__, counted(method))
    clicks = len(REFERENCE_RUNS[name]())
    solve = calls["evaluate"] - calls["advance"] - clicks
    assert solve / clicks <= bound


def test_ensemble_rejects_operator_changing_excitation_number():
    sp = dynamics.build_model(TWO_LEVEL, RES).space
    with pytest.raises(ValueError, match="excitation number"):
        trajectories.ensemble_populations(TWO_LEVEL, RES, sp.a + sp.ad,
                                          np.linspace(0.0, 1.0, 3), 2, seed=1)


def test_dark_detected_channel_keeps_its_label():
    p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.15, gamma_m_GHz=24.1,
                     gamma_b_GHz=0.0, pump_GHz=0.01, n_max=1)
    cw = run_cw(p, RES, duration_ns=500.0, seed=2)
    pulsed = run_pulsed(p, RES, PulseConfig(n_pulses=20), seed=2)
    for s in (cw, pulsed):
        assert s.labels == trajectories.DETECTED
        assert s.times("exciton_radiative").size == 0


class TestPulsed:
    def test_single_photon_regime_is_bernoulli(self):
        p = SystemParams(g_GHz=0.0, gamma_x_GHz=0.2, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.2, pump_GHz=0.0, n_max=1,
                         lambda_x_nm=946.6)
        cfg = PulseConfig(rep_rate_MHz=40, mean_captures_per_pulse=0.3,
                          capture_delay_ns=0.06, n_pulses=10000,
                          allow_recapture=False)
        s = run_pulsed(p, Detuning.from_nm(4.1, 942.5), cfg, seed=3)
        x = s.times("exciton_radiative")
        per_pulse = np.bincount((x // cfg.rep_period_ns).astype(int),
                                minlength=cfg.n_pulses)
        assert per_pulse.max() == 1
        frac = per_pulse.mean()
        want = 1 - math.exp(-0.3)
        # decay window loses the tail beyond one period
        assert frac == pytest.approx(want, rel=0.1)

    def test_recapture_allows_multiple_clicks(self):
        p = SystemParams(g_GHz=20.7, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.0, n_max=3)
        cfg = PulseConfig(rep_rate_MHz=80, mean_captures_per_pulse=1.0,
                          capture_delay_ns=0.06, n_pulses=4000)
        s = run_pulsed(p, RES, cfg, seed=11)
        m = s.times("cavity_loss")
        per_pulse = np.bincount((m // cfg.rep_period_ns).astype(int),
                                minlength=cfg.n_pulses)
        assert per_pulse.max() >= 2

    def test_resonant_decay_is_capture_limited(self):
        p = SystemParams(g_GHz=20.7, gamma_x_GHz=8.5, gamma_m_GHz=24.1,
                         gamma_b_GHz=0.015, pump_GHz=0.0, n_max=3)
        cfg = PulseConfig(rep_rate_MHz=80, mean_captures_per_pulse=1.0,
                          capture_delay_ns=0.060, n_pulses=15000)
        s = run_pulsed(p, RES, cfg, seed=11)
        h = trajectories.lifetime_from_clicks(s, "cavity_loss",
                                              cfg.rep_period_ns, bin_ns=0.01)
        # fit the tail beyond the ~10 ps polariton response: capture-limited
        sel = (h.centers_ns > 0.1) & (h.centers_ns < 1.5)
        fit = fitkit.fit_decay((h.centers_ns[sel], h.counts[sel]), "mono")
        assert fit.params["tau_ns"] == pytest.approx(0.060, rel=0.1)

    def test_detuned_decay_matches_purcell_lifetime(self):
        det = Detuning.from_nm(4.1, 942.5)
        p = SystemParams(lambda_x_nm=946.6, g_GHz=20.7, gamma_x_GHz=0.015,
                         gamma_m_GHz=24.1, gamma_b_GHz=0.015, pump_GHz=0.0,
                         n_max=1)
        want = purcell_lifetime(p, det).tau_ns
        cfg = PulseConfig(rep_rate_MHz=40, mean_captures_per_pulse=0.8,
                          capture_delay_ns=0.06, n_pulses=12000)
        s = run_pulsed(p, det, cfg, seed=19)
        times = np.sort(np.concatenate([s.times("exciton_radiative"),
                                        s.times("cavity_loss")]))
        merged = trajectories.ClickStream(times, np.zeros(times.size, np.int16),
                                          ("pl",), s.duration_ns)
        h = trajectories.lifetime_from_clicks(merged, "pl", cfg.rep_period_ns,
                                              bin_ns=0.25)
        fit = fitkit.fit_decay(h, "mono", fix_t0=0.0)
        assert fit.params["tau_ns"] == pytest.approx(want, rel=0.1)


class TestLifetimeHistogram:
    def test_synthetic_exponential_recovery(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.exponential(7.6, size=20000))
        s = trajectories.ClickStream(times, np.zeros(times.size, np.int16),
                                     ("pl",), float(times[-1] + 1))
        h = trajectories.lifetime_from_clicks(s, "pl", rep_period_ns=100.0,
                                              bin_ns=0.25)
        fit = fitkit.fit_decay(h, "mono", fix_t0=0.0)
        assert fit.params["tau_ns"] == pytest.approx(7.6, rel=0.02)

    def test_uniform_clicks_flat_histogram(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 1e5, size=50000))
        s = trajectories.ClickStream(times, np.zeros(times.size, np.int16),
                                     ("pl",), 1e5)
        h = trajectories.lifetime_from_clicks(s, "pl", rep_period_ns=25.0,
                                              bin_ns=0.5)
        mean = h.counts.mean()
        assert np.all(np.abs(h.counts - mean) < 5 * math.sqrt(mean))

    def test_empty_channel_rejected(self):
        s = trajectories.ClickStream(np.array([1.0]), np.array([0], np.int16),
                                     ("cavity_loss", "exciton_radiative"), 10.0)
        with pytest.raises(ValueError):
            trajectories.lifetime_from_clicks(s, "exciton_radiative", 25.0)


def test_click_stream_accessors():
    s = trajectories.ClickStream(np.array([0.5, 1.0, 2.0]),
                                 np.array([0, 1, 0], np.int16),
                                 ("cavity_loss", "exciton_radiative"), 10.0)
    assert list(s.times("cavity_loss")) == [0.5, 2.0]
    assert s.counts() == {"cavity_loss": 2, "exciton_radiative": 1}
    with pytest.raises(KeyError):
        s.times("nope")


def test_pulse_config_validation():
    with pytest.raises(ValueError):
        PulseConfig(rep_rate_MHz=0)
    with pytest.raises(ValueError):
        PulseConfig(mean_captures_per_pulse=0)
    assert PulseConfig(rep_rate_MHz=40).rep_period_ns == pytest.approx(25.0)
