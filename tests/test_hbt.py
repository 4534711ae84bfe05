import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavqed import hbt
from cavqed.hbt import (
    Histogram,
    normalize_g2,
    poisson_stream,
    pulsed_peak_areas,
    split_beam,
    start_stop_histogram,
)

# Click times in half-ns ticks on a short range, so that streams tie often.
_TICK = st.integers(-30, 30)
_TICKS = st.lists(_TICK, min_size=1, max_size=40)


class TestSplitBeam:
    def test_conservation(self):
        times = poisson_stream(1e-2, 1e5, seed=0)
        a, b = split_beam(times, seed=1)
        assert a.size + b.size == times.size

    def test_binomial_balance(self):
        times = poisson_stream(1e-3, 1e8, seed=0)
        n = times.size
        assert n > 90000
        a, _ = split_beam(times, seed=1)
        assert abs(a.size - n / 2) < 4 * math.sqrt(n * 0.25)

    def test_deterministic(self):
        times = poisson_stream(1e-2, 1e4, seed=0)
        a1, _ = split_beam(times, seed=5)
        a2, _ = split_beam(times, seed=5)
        assert np.array_equal(a1, a2)


class TestStartStopHistogram:
    def test_poisson_streams_flat_g2(self):
        rate, duration = 1e-3, 4e8
        starts = poisson_stream(rate, duration, seed=10, stream_index=0)
        stops = poisson_stream(rate, duration, seed=10, stream_index=1)
        h = start_stop_histogram(starts, stops, bin_ns=0.25, window_ns=25.0)
        g2 = normalize_g2(h, duration_ns=duration)
        expected = rate * starts.size * 0.25
        sigma = math.sqrt(expected) / expected
        assert np.all(np.abs(g2.values - 1.0) < 3.0 * sigma)

    def test_anticorrelated_alternating_source(self):
        # one emitter alternating between two channels with a recovery dead
        # time: no coincidences inside the dead window
        rng = np.random.default_rng(2)
        gaps = 5.0 + rng.exponential(10.0, size=40000)
        times = np.cumsum(gaps)
        starts, stops = times[0::2], times[1::2]
        h = start_stop_histogram(starts, stops, bin_ns=0.5, window_ns=40.0)
        centers = h.centers_ns
        near = np.abs(centers) < 4.0
        far = np.abs(centers) > 30.0
        assert h.counts[near].sum() == 0
        assert h.counts[far].mean() > 20

    def test_translation_invariance(self):
        starts = poisson_stream(5e-3, 1e5, seed=3, stream_index=0)
        stops = poisson_stream(5e-3, 1e5, seed=3, stream_index=1)
        h1 = start_stop_histogram(starts, stops, bin_ns=0.5, window_ns=20.0)
        h2 = start_stop_histogram(starts + 123.456, stops + 123.456,
                                  bin_ns=0.5, window_ns=20.0)
        assert np.array_equal(h1.counts, h2.counts)

    def test_estimators_agree_at_low_rate(self):
        rate, duration = 2e-4, 5e8
        starts = poisson_stream(rate, duration, seed=4, stream_index=0)
        stops = poisson_stream(rate, duration, seed=4, stream_index=1)
        # rate * window = 0.004 << 1: first-stop bias negligible
        h_all = start_stop_histogram(starts, stops, bin_ns=2.0, window_ns=20.0)
        h_ss = start_stop_histogram(starts, stops, bin_ns=2.0, window_ns=20.0,
                                    estimator="start-stop")
        diff = h_all.counts.astype(float) - h_ss.counts
        sigma = np.sqrt(np.maximum(h_all.counts, 1))
        assert np.all(np.abs(diff) < 3.0 * sigma + 3)

    @pytest.mark.parametrize("estimator", ["all-pairs", "start-stop"])
    def test_exact_zero_delay_counts_once(self, estimator):
        # the start at 10 ns and the stop at 10 ns are the only pair in range
        h = start_stop_histogram(np.array([10.0, 50.0]), np.array([10.0, 30.0]),
                                 bin_ns=1.0, window_ns=5.0, estimator=estimator)
        hit = h.counts != 0
        assert dict(zip(h.centers_ns[hit], h.counts[hit])) == {0.5: 1}

    def test_shard_merge_associativity(self):
        starts = poisson_stream(5e-3, 2e5, seed=6, stream_index=0)
        stops = poisson_stream(5e-3, 2e5, seed=6, stream_index=1)
        cut = starts.size // 2
        h_full = start_stop_histogram(starts, stops, bin_ns=0.5, window_ns=10.0)
        h_a = start_stop_histogram(starts[:cut], stops, bin_ns=0.5, window_ns=10.0)
        h_b = start_stop_histogram(starts[cut:], stops, bin_ns=0.5, window_ns=10.0)
        assert np.array_equal(h_a.counts + h_b.counts, h_full.counts)
        assert h_a.n_starts + h_b.n_starts == h_full.n_starts

    @staticmethod
    def _edge_case_streams(rng, bin_ns, window_ns, offset):
        """Small streams on offset ± 2 windows with coincident clicks,
        clicks exactly ±window and ±one bin apart, and clicks one ulp
        beyond ±window."""
        span = 2.0 * window_ns
        starts = offset + np.sort(rng.uniform(-span, span, 150))
        at = starts[rng.permutation(starts.size)]
        stops = np.concatenate([
            offset + rng.uniform(-span, span, 60),
            at[:30],                                    # coincident
            at[30:50] + window_ns, at[50:70] - window_ns,
            at[70:90] + bin_ns, at[90:110] - bin_ns,
            np.nextafter(at[110:130] + window_ns, np.inf),
            np.nextafter(at[130:150] - window_ns, -np.inf),
        ])
        return starts, np.sort(stops)

    @pytest.mark.parametrize("offset", [0.0, 1e9])
    @pytest.mark.parametrize("bin_ns,window_ns", [(0.25, 100.0), (0.5, 10.0),
                                                  (2.0, 20.0), (0.1, 10.0),
                                                  (0.3, 30.0)])
    def test_all_pairs_matches_reference(self, bin_ns, window_ns, offset):
        # every pair's delay histogrammed directly; around 0 the subtraction
        # of a start from a stop can round, and near 1e9 ns an ulp of a click
        # time is about 1e-7 ns; 0.1 and 0.3 ns are not exact in binary, so
        # their bin edges round too
        rng = np.random.default_rng(11)
        starts, stops = self._edge_case_streams(rng, bin_ns, window_ns, offset)
        h = start_stop_histogram(starts, stops, bin_ns=bin_ns, window_ns=window_ns)
        ref = np.histogram((stops[None, :] - starts[:, None]).ravel(),
                           bins=h.bin_edges_ns)[0]
        assert np.array_equal(h.counts, ref)
        assert h.counts.dtype == np.int64

    @staticmethod
    def _tied_runs(offset):
        """Runs of equal starts and of equal stops, coincident with each
        other, that cross the edges of blocks of 1 and of 7 starts."""
        starts = offset + np.repeat([0.0, 1.0, 1.5, 5.0, 9.0], [5, 9, 4, 6, 3])
        stops = offset + np.repeat([-2.0, 0.0, 1.0, 3.0, 5.0, 12.0],
                                   [2, 3, 8, 2, 9, 1])
        return starts, stops

    @staticmethod
    def _burst(rng, offset):
        """Starts 25 ns apart, each with three stops in reach, and one start
        amid a burst of 300 stops that no other start reaches: its run is a
        hundred times longer than those of its block-mates."""
        starts = offset + 25.0 * np.arange(-20, 21)
        stops = np.concatenate([
            (starts + rng.uniform(-8.0, 8.0, (3, starts.size))).ravel(),
            offset + rng.uniform(-5.0, 5.0, 300), [offset],
        ])
        return starts, np.sort(stops)

    @staticmethod
    def _dense(rng, offset):
        """400 clicks per stream within 30 ns: about 9e4 pairs in reach, so
        the lags of one block overflow the delay buffer at the default
        ``_BLOCK`` as well as at small ones."""
        return (offset + np.sort(rng.uniform(-15.0, 15.0, 400)),
                offset + np.sort(rng.uniform(-15.0, 15.0, 400)))

    @staticmethod
    def _matrix_reference(starts, stops, edges, estimator):
        """Either estimator from the full matrix of stop - start delays."""
        after = stops[None, :] - starts[:, None]
        if estimator == "all-pairs":
            return np.histogram(after.ravel(), bins=edges)[0]
        before = starts[None, :] - stops[:, None]
        # first stop at or after each start, and first start at or after
        # each stop, less the exact-zero delays that the positive side has
        first_stop = np.where(after >= 0, after, np.inf).min(axis=1)
        first_start = np.where(before >= 0, before, np.inf).min(axis=1)
        first_start = first_start[first_start > 0]
        return (np.histogram(first_stop[np.isfinite(first_stop)], bins=edges)[0]
                + np.histogram(-first_start[np.isfinite(first_start)], bins=edges)[0])

    @pytest.mark.parametrize("estimator", ["all-pairs", "start-stop"])
    @pytest.mark.parametrize("offset", [0.0, 1e9])
    @pytest.mark.parametrize("streams", ["edge-cases", "tied-runs", "burst", "dense"])
    def test_block_boundaries(self, monkeypatch, streams, offset, estimator):
        rng = np.random.default_rng(14)
        if streams == "edge-cases":
            starts, stops = self._edge_case_streams(rng, 0.5, 10.0, offset)
        elif streams == "tied-runs":
            starts, stops = self._tied_runs(offset)
        elif streams == "burst":
            starts, stops = self._burst(rng, offset)
        else:
            starts, stops = self._dense(rng, offset)

        def counts():
            return start_stop_histogram(starts, stops, bin_ns=0.5, window_ns=10.0,
                                        estimator=estimator).counts

        whole = counts()
        edges = 0.5 * np.arange(-20, 21)
        assert whole[20] > 0  # coincident clicks land in the bin starting at 0
        assert np.array_equal(whole, self._matrix_reference(starts, stops, edges,
                                                            estimator))
        for block in (1, 7):
            monkeypatch.setattr(hbt, "_BLOCK", block)
            assert np.array_equal(counts(), whole)

    @given(starts=_TICKS, stops=_TICKS, shared=st.lists(_TICK, max_size=12),
           offset=st.sampled_from([0.0, 1e9]),
           block=st.sampled_from([1, 2, 7, hbt._BLOCK]))
    def test_both_estimators_match_matrix_reference(self, starts, stops, shared,
                                                    offset, block):
        # half-ns ticks on ±15 ns, with clicks common to both streams:
        # delays land on bin edges, exactly on ±window, at zero and beyond
        starts = offset + 0.5 * np.sort(starts + shared).astype(float)
        stops = offset + 0.5 * np.sort(stops + shared).astype(float)
        edges = 0.5 * np.arange(-20, 21)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hbt, "_BLOCK", block)
            for estimator in ("all-pairs", "start-stop"):
                h = start_stop_histogram(starts, stops, bin_ns=0.5, window_ns=10.0,
                                         estimator=estimator)
                assert np.array_equal(h.counts, self._matrix_reference(
                    starts, stops, edges, estimator))

    @staticmethod
    def _first_stop_reference(starts, stops, edges):
        """Start-stop without blocks: one search of all starts into the
        stops, and one of all stops into the starts."""
        i = np.searchsorted(stops, starts, side="left")
        has = i < stops.size
        after = stops[i[has]] - starts[has]
        j = np.searchsorted(starts, stops, side="left")
        has = j < starts.size
        before = starts[j[has]] - stops[has]
        return (np.histogram(after, bins=edges)[0]
                + np.histogram(-before[before > 0], bins=edges)[0])

    @pytest.mark.parametrize("rate_a,rate_b", [(1e-3, 1e-3), (0.02, 0.02), (0.2, 0.2),
                                               (2e-3, 0.2), (0.2, 2e-3)])
    def test_start_stop_matches_unblocked_search(self, rate_a, rate_b):
        # 1e5 clicks in the denser stream: several blocks of starts, or one
        # block whose stops span several chunks
        duration = 1e5 / max(rate_a, rate_b)
        starts = poisson_stream(rate_a, duration, seed=16, stream_index=0)
        stops = poisson_stream(rate_b, duration, seed=16, stream_index=1)
        h = start_stop_histogram(starts, stops, bin_ns=0.25, window_ns=100.0,
                                 estimator="start-stop")
        assert np.array_equal(h.counts, self._first_stop_reference(
            starts, stops, h.bin_edges_ns))

    @pytest.mark.parametrize("estimator", ["all-pairs", "start-stop"])
    def test_memory_bounded_in_click_count(self, estimator):
        # 0.2 clicks/ns: 4e6 and 4e7 pairs in the window; no temporary may
        # grow with the streams, only the inputs themselves
        peaks = []
        for n_clicks in (1e5, 1e6):
            starts = poisson_stream(0.2, n_clicks / 0.2, seed=15, stream_index=0)
            stops = poisson_stream(0.2, n_clicks / 0.2, seed=15, stream_index=1)
            tracemalloc.start()
            try:
                start_stop_histogram(starts, stops, bin_ns=0.25, window_ns=100.0,
                                     estimator=estimator)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16e6
        assert peaks[1] - peaks[0] < 1e6

    @pytest.mark.parametrize("rate_a,rate_b", [(2e-3, 0.2), (0.2, 2e-3)])
    def test_start_stop_memory_bounded_at_lopsided_rates(self, rate_a, rate_b):
        # one stream 100 times denser than the other: 1e5 and 1e6 clicks in
        # it, so one block of sparse starts reaches up to 1e6 stops
        peaks = []
        for n_clicks in (1e5, 1e6):
            duration = n_clicks / max(rate_a, rate_b)
            starts = poisson_stream(rate_a, duration, seed=17, stream_index=0)
            stops = poisson_stream(rate_b, duration, seed=17, stream_index=1)
            tracemalloc.start()
            try:
                start_stop_histogram(starts, stops, bin_ns=0.25, window_ns=100.0,
                                     estimator="start-stop")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16e6
        assert peaks[1] - peaks[0] < 1e6

    def test_all_pairs_memory_bounded(self):
        # ~1e7 pairs; holding them as a pair list would take hundreds of MB
        starts = poisson_stream(1.0, 1e5, seed=13, stream_index=0)
        stops = poisson_stream(1.0, 1e5, seed=13, stream_index=1)
        tracemalloc.start()
        try:
            h = start_stop_histogram(starts, stops, bin_ns=0.25, window_ns=50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.counts.sum() > 9e6
        assert peak < 32e6

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            start_stop_histogram(np.array([]), np.array([1.0]))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            start_stop_histogram(np.array([2.0, 1.0]), np.array([1.0]))

    @pytest.mark.parametrize("name,value", [
        ("starts_ns", [1.0, np.nan]), ("starts_ns", [np.nan]),
        ("stops_ns", [2.0, np.inf]), ("stops_ns", [-np.inf, 2.0]),
        ("bin_ns", np.nan), ("bin_ns", np.inf),
        ("window_ns", np.nan), ("window_ns", np.inf),
    ])
    def test_non_finite_input_rejected(self, name, value):
        args = {"starts_ns": [1.0, 3.0], "stops_ns": [2.0, 6.0, 10.0],
                "bin_ns": 0.25, "window_ns": 100.0, name: value}
        with pytest.raises(ValueError, match=name):
            start_stop_histogram(**args)

    def test_bin_count_ceiling(self):
        assert hbt.MAX_BINS_PER_SIDE == 10**6
        with pytest.raises(ValueError, match="bins per side"):
            start_stop_histogram([1.0], [2.0], bin_ns=1e-3, window_ns=1.5e3)


class TestNormalizeG2:
    def test_flat_poisson_normalizes_to_one(self):
        rate, duration = 2e-3, 1e8
        starts = poisson_stream(rate, duration, seed=7, stream_index=0)
        stops = poisson_stream(rate, duration, seed=7, stream_index=1)
        h = start_stop_histogram(starts, stops, bin_ns=1.0, window_ns=30.0)
        g2 = normalize_g2(h, duration_ns=duration)
        assert g2.values.mean() == pytest.approx(1.0, abs=0.01)

    def test_zero_normalization_rejected(self):
        h = Histogram(np.array([-1.0, 0.0, 1.0]), np.array([0, 0]),
                      n_starts=0, n_stops=10)
        with pytest.raises(ValueError, match="zero normalization"):
            normalize_g2(h, duration_ns=100.0)

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_nonpositive_duration_rejected(self, duration):
        h = Histogram(np.array([-1.0, 0.0, 1.0]), np.array([1, 1]),
                      n_starts=10, n_stops=10)
        with pytest.raises(ValueError, match="duration_ns > 0"):
            normalize_g2(h, duration_ns=duration)


    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        h = Histogram(np.array([-1.0, 0.0, 1.0]), np.array([1, 1]),
                      n_starts=10, n_stops=10)
        with pytest.raises(ValueError, match="duration_ns"):
            normalize_g2(h, duration_ns=duration)


class TestPulsedPeakAreas:
    @staticmethod
    def _pulsed_histogram(per_pulse_counts, period=25.0, seed=0):
        rng = np.random.default_rng(seed)
        times = []
        for j, k in enumerate(per_pulse_counts):
            for _ in range(int(k)):
                times.append(j * period + rng.exponential(1.5))
        times = np.sort(np.array(times))
        a, b = split_beam(times, seed=seed + 1)
        return start_stop_histogram(a, b, bin_ns=0.25, window_ns=150.0)

    def test_ideal_single_emitter_zero_ratio(self):
        rng = np.random.default_rng(3)
        counts = (rng.random(30000) < 0.5).astype(int)
        h = self._pulsed_histogram(counts)
        rep = pulsed_peak_areas(h, 25.0, 6.25)
        assert rep.ratio < 0.02

    def test_poissonian_source_ratio_one(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(0.8, size=30000)
        h = self._pulsed_histogram(counts)
        rep = pulsed_peak_areas(h, 25.0, 6.25)
        assert rep.ratio == pytest.approx(1.0, abs=0.05)

    def test_g2_side_peaks_average_to_one(self):
        rng = np.random.default_rng(4)
        h = self._pulsed_histogram(rng.poisson(0.8, size=30000))
        period, half = 25.0, 6.25
        rep = pulsed_peak_areas(h, period, half)
        centers = h.centers_ns
        side = [float(rep.g2[np.abs(centers - k * period) <= half].sum())
                * h.bin_width_ns / (2.0 * half)
                for k in rep.peak_offsets if k != 0]
        assert np.mean(side) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_windows_rejected(self):
        h = self._pulsed_histogram(np.ones(200))
        with pytest.raises(ValueError):
            pulsed_peak_areas(h, 25.0, 13.0)

    def test_needs_enough_side_peaks(self):
        h = self._pulsed_histogram(np.ones(2000))
        with pytest.raises(ValueError):
            pulsed_peak_areas(h, 200.0, 6.0)


def test_transfer_fed_cross_correlation_dip():
    # two-level emitter with incoherent transfer feeding the detuned cavity:
    # exciton and mode clicks anti-correlate and recover exponentially
    from cavqed import trajectories
    from cavqed.polariton import SystemParams
    from cavqed.units import Detuning

    p = SystemParams(lambda_x_nm=946.6, g_GHz=20.7, gamma_x_GHz=0.03,
                     gamma_m_GHz=24.1, gamma_b_GHz=0.03, pump_GHz=0.004,
                     transfer_GHz=0.05, n_max=1)
    det = Detuning.from_nm(4.1, 942.5)
    duration = 4e5
    s = trajectories.run_cw(p, det, duration_ns=duration, seed=44,
                            discard_ns=50.0)
    x, m = s.times("exciton_radiative"), s.times("cavity_loss")
    h = start_stop_histogram(x, m, bin_ns=0.5, window_ns=25.0)
    g2 = normalize_g2(h, duration_ns=duration - 50.0)
    mid = np.argmin(np.abs(g2.tau_ns))
    assert g2.values[mid] < 0.4
    plateau = g2.values[np.abs(g2.tau_ns) > 18].mean()
    assert plateau == pytest.approx(1.0, abs=0.15)
    # exponential-looking recovery on both sides
    for sign in (1, -1):
        side = g2.tau_ns * sign > 0
        tt, vv = np.abs(g2.tau_ns[side]), g2.values[side]
        order = np.argsort(tt)
        smooth = np.convolve(vv[order], np.ones(5) / 5, mode="valid")
        assert smooth[0] < 0.6 and smooth[-1] > 0.75


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 1.0]), np.array([1, 2]), 1, 1)
    with pytest.raises(ValueError):
        Histogram(np.array([1.0, 0.0, 2.0]), np.array([1, 2]), 1, 1)
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, -2]), 1, 1)


def test_poisson_stream_rate():
    s = poisson_stream(1e-2, 1e6, seed=9)
    assert abs(s.size - 1e4) < 4 * math.sqrt(1e4)
    assert np.all(np.diff(s) > 0)


@pytest.mark.parametrize("name,rate,duration", [
    ("rate_per_ns", math.nan, 1e3), ("rate_per_ns", math.inf, 1e3),
    ("duration_ns", 0.1, math.inf), ("duration_ns", 0.1, math.nan),
])
def test_poisson_stream_non_finite_rejected(name, rate, duration):
    with pytest.raises(ValueError, match=name):
        poisson_stream(rate, duration, seed=1)
