"""Correlation analysis of photon click streams.

Emulates the measurement electronics downstream of the detectors: a 50:50
beam splitter, start-stop (first-stop) or all-pairs delay histogramming over
a finite window, CW and pulsed g2 normalization, and pulsed peak-area
analysis.  Everything operates on plain sorted float arrays of click times
in ns, so the same code digests simulated and imported data.

The all-pairs histogram is one two-sided pass that streams pair delays into
bin counts in fixed-size chunks and never holds a pair list, so its memory
is bounded independently of the pair count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CorrelationTrace
from .units import philox

__all__ = [
    "Histogram",
    "PeakAreaReport",
    "split_beam",
    "start_stop_histogram",
    "normalize_g2",
    "pulsed_peak_areas",
    "poisson_stream",
]

# Pairs histogrammed per chunk of the all-pairs pass: bounds its working memory.
_CHUNK_PAIRS = 1 << 18


@dataclass
class Histogram:
    """Counts of start-stop delays with the totals needed for normalization."""

    bin_edges_ns: np.ndarray
    counts: np.ndarray
    n_starts: int
    n_stops: int

    def __post_init__(self):
        self.bin_edges_ns = np.asarray(self.bin_edges_ns, dtype=float)
        self.counts = np.asarray(self.counts)
        if np.any(np.diff(self.bin_edges_ns) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if self.counts.size != self.bin_edges_ns.size - 1:
            raise ValueError("counts length must be number of bins")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def centers_ns(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_ns[1:] + self.bin_edges_ns[:-1])

    @property
    def bin_width_ns(self) -> float:
        return float(self.bin_edges_ns[1] - self.bin_edges_ns[0])


@dataclass(frozen=True)
class PeakAreaReport:
    """Pulsed-autocorrelation peak areas around multiples of the pulse period."""

    mean_side_area: float
    ratio: float                  # central area / mean side area
    peak_offsets: np.ndarray      # integer multiples of the period
    peak_areas: np.ndarray
    half_window_ns: float


def split_beam(times_ns: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Route each click independently to output A or B with probability 1/2."""
    times = np.asarray(times_ns, dtype=float)
    # Fixed stream word so the splitter draws never collide with other
    # consumers of the same master seed.
    rng = philox(seed, 0x5011771E12)
    to_a = rng.random(times.size) < 0.5
    return times[to_a], times[~to_a]


def _all_pairs_counts(starts: np.ndarray, stops: np.ndarray,
                      edges: np.ndarray) -> np.ndarray:
    """Histogram of stop - start over every pair, in one two-sided pass.

    The search bounds are widened by 4 ulps of the largest time so that
    rounding of start ± window never drops a pair whose computed delay is in
    range; ``np.histogram``'s range test on the delay then decides.  Pairs
    are visited in chunks of ``_CHUNK_PAIRS``, cut anywhere in a start's run
    of stops.
    """
    scale = max(abs(starts[0]), abs(starts[-1]), abs(stops[0]), abs(stops[-1]),
                edges[-1])
    reach = edges[-1] + 4 * np.spacing(scale)
    first = np.searchsorted(stops, starts - reach, side="left")
    n_pairs = np.searchsorted(stops, starts + reach, side="right") - first
    busy = n_pairs > 0                  # so a chunk spans at most its pairs + 1 starts
    starts, first, n_pairs = starts[busy], first[busy], n_pairs[busy]
    ends = np.cumsum(n_pairs)           # one past the last pair of each start
    begins = ends - n_pairs
    shift = begins - first              # pair index - stop index within a run
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    total = int(n_pairs.sum())
    for lo in range(0, total, _CHUNK_PAIRS):
        hi = min(lo + _CHUNK_PAIRS, total)
        # starts whose runs overlap pairs [lo, hi), each adding at least one
        s0 = int(np.searchsorted(ends, lo, side="right"))
        s1 = int(np.searchsorted(ends, hi, side="left")) + 1
        take = np.minimum(ends[s0:s1], hi) - np.maximum(begins[s0:s1], lo)
        owner = np.repeat(np.arange(s0, s1), take)
        delays = stops[np.arange(lo, hi) - shift[owner]] - starts[owner]
        counts += np.histogram(delays, bins=edges)[0]
    return counts


def _first_stops(starts: np.ndarray, stops: np.ndarray, window: float) -> np.ndarray:
    """First stop after each start (classic TAC), within the window."""
    idx = np.searchsorted(stops, starts, side="right")
    valid = idx < stops.size
    delays = stops[idx[valid]] - starts[valid]
    return delays[delays <= window]


def start_stop_histogram(starts_ns: np.ndarray, stops_ns: np.ndarray,
                         bin_ns: float = 0.25, window_ns: float = 100.0,
                         estimator: str = "all-pairs") -> Histogram:
    """Two-sided delay histogram between a start and a stop stream.

    Positive delays are stop-after-start; negative delays come from the
    mirrored role assignment, as in a two-detector timer that is started by
    whichever stream fires first.  ``estimator`` selects ``"all-pairs"``
    (every pair inside the window; unbiased at high rates) or
    ``"start-stop"`` (first stop per start, the hardware TAC behaviour).

    All-pairs counts every pair whose computed delay ``stop - start`` lies
    in the histogram range by ``np.histogram``'s rule (bins half-open, the
    last one closed).  Both signs come from one pass, so an exact-zero delay
    counts once, in the bin starting at 0.  The pass works in chunks of a
    fixed number of pairs, so its memory is bounded independently of the
    pair count.
    """
    starts = np.asarray(starts_ns, dtype=float)
    stops = np.asarray(stops_ns, dtype=float)
    if starts.size == 0 or stops.size == 0:
        raise ValueError("both click streams must be non-empty")
    if np.any(np.diff(starts) < 0) or np.any(np.diff(stops) < 0):
        raise ValueError("click streams must be time-sorted")
    if bin_ns <= 0 or window_ns <= bin_ns:
        raise ValueError("need bin_ns > 0 and window_ns > bin_ns")
    n_bins = int(round(window_ns / bin_ns))
    edges = bin_ns * np.arange(-n_bins, n_bins + 1)
    if estimator == "all-pairs":
        counts = _all_pairs_counts(starts, stops, edges)
    elif estimator == "start-stop":
        pos = _first_stops(starts, stops, edges[-1])
        neg = _first_stops(stops, starts, edges[-1])
        neg = neg[neg > 0]  # exact-zero pairs belong to the positive side only
        counts = (np.histogram(pos, bins=edges)[0]
                  + np.histogram(-neg, bins=edges)[0])
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return Histogram(edges, counts, n_starts=starts.size, n_stops=stops.size)


def normalize_g2(h: Histogram, duration_ns: float | None = None,
                 mode: str = "cw", rep_period_ns: float | None = None) -> CorrelationTrace:
    """Histogram to normalized g2.

    CW mode divides by n_starts * r_stop * bin, the uncorrelated coincidence
    level, with the stop rate r_stop = n_stops / ``duration_ns`` inferred
    from the recorded totals over the acquisition time.  Pulsed mode
    divides by the mean side-peak level from :func:`pulsed_peak_areas`, each
    peak integrated over +-period/4.
    """
    if mode == "cw":
        if not duration_ns:
            raise ValueError("cw normalization needs duration_ns")
        denom = h.n_starts * (h.n_stops / duration_ns) * h.bin_width_ns
    elif mode == "pulsed":
        if not rep_period_ns:
            raise ValueError("pulsed normalization needs rep_period_ns")
        report = pulsed_peak_areas(h, rep_period_ns, rep_period_ns / 4.0)
        denom = report.mean_side_area * h.bin_width_ns / (2.0 * report.half_window_ns)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if denom <= 0:
        raise ValueError("zero normalization: no uncorrelated coincidence level")
    return CorrelationTrace(h.centers_ns, h.counts / denom)


def pulsed_peak_areas(h: Histogram, rep_period_ns: float,
                      half_window_ns: float) -> PeakAreaReport:
    """Integrate counts around every multiple of the pulse period in range."""
    if half_window_ns <= 0 or 2.0 * half_window_ns > rep_period_ns:
        raise ValueError("peak windows overlap: need 2*half_window <= rep_period")
    lo, hi = h.bin_edges_ns[0], h.bin_edges_ns[-1]
    k_min = int(math.ceil((lo + half_window_ns) / rep_period_ns))
    k_max = int(math.floor((hi - half_window_ns) / rep_period_ns))
    offsets = np.arange(k_min, k_max + 1)
    if offsets.size < 4 or 0 not in offsets:
        raise ValueError("histogram window must cover the central and >= 3 side peaks")
    centers = h.centers_ns
    areas = np.array([
        float(h.counts[np.abs(centers - k * rep_period_ns) <= half_window_ns].sum())
        for k in offsets
    ])
    central = float(areas[offsets == 0][0])
    side = areas[offsets != 0]
    mean_side = float(side.mean())
    if mean_side <= 0:
        raise ValueError("no counts in the side peaks; cannot form a ratio")
    return PeakAreaReport(mean_side_area=mean_side, ratio=central / mean_side,
                          peak_offsets=offsets, peak_areas=areas,
                          half_window_ns=half_window_ns)


def poisson_stream(rate_per_ns: float, duration_ns: float, seed: int,
                   stream_index: int = 0) -> np.ndarray:
    """Homogeneous Poisson click times on [0, duration); the uncorrelated reference."""
    if rate_per_ns <= 0 or duration_ns <= 0:
        raise ValueError("rate and duration must be positive")
    rng = philox(seed, stream_index)
    n_expected = rate_per_ns * duration_ns
    gaps = rng.exponential(1.0 / rate_per_ns, size=int(n_expected + 6 * math.sqrt(n_expected) + 10))
    times = np.cumsum(gaps)
    while times[-1] < duration_ns:
        gaps = rng.exponential(1.0 / rate_per_ns, size=gaps.size)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    return times[times < duration_ns]
