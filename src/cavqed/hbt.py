"""Correlation analysis of photon click streams.

Emulates the measurement electronics downstream of the detectors: a 50:50
beam splitter, start-stop (first-stop) or all-pairs delay histogramming over
a finite window, CW g2 normalization, and pulsed peak-area analysis, which
gives the pulsed g2.  Everything operates on plain sorted float arrays of
click times in ns, so the same code digests simulated and imported data.

Both estimators take the starts in blocks of a fixed size and search only
the slice of stops that a block can reach; all-pairs then walks the runs
of stops one lag at a time, gathering short lags in one buffer of a block
of delays.  No array grows with the click count or the pair count, so
memory is bounded independently of both.  A histogram has at most
``MAX_BINS_PER_SIDE`` bins on each side of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CorrelationTrace
from .units import philox

__all__ = [
    "MAX_BINS_PER_SIDE",
    "Histogram",
    "PeakAreaReport",
    "split_beam",
    "start_stop_histogram",
    "normalize_g2",
    "pulsed_peak_areas",
    "poisson_stream",
]

# Starts per block of either estimator and clicks per block of the stream
# check: the one size that bounds the working memory.
_BLOCK = 1 << 15

# Ceiling on window_ns / bin_ns, the bins on each side of zero.
MAX_BINS_PER_SIDE = 10**6


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

    ratio: float                  # central area / mean side area
    peak_offsets: np.ndarray      # integer multiples of the period
    peak_areas: np.ndarray
    half_window_ns: float
    g2: np.ndarray                # counts / mean side-peak level per bin


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
    range; ``np.histogram``'s range test on the delay then decides.  Starts
    are taken in blocks of ``_BLOCK``, each start reaching a run of stops.
    With the block sorted longest run first, lag m takes the m-th stop of
    every run longer than m: at most a block of delays.  The lags share a
    buffer of ``_BLOCK`` delays, histogrammed when the next lag would
    overflow it, so a small dense call makes few ``np.histogram`` calls.
    """
    scale = max(abs(starts[0]), abs(starts[-1]), abs(stops[0]), abs(stops[-1]),
                edges[-1])
    reach = edges[-1] + 4 * np.spacing(scale)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    pending, fill = np.empty(_BLOCK), 0
    for b in range(0, starts.size, _BLOCK):
        block = starts[b:b + _BLOCK]
        view = stops[np.searchsorted(stops, block[0] - reach, side="left"):
                     np.searchsorted(stops, block[-1] + reach, side="right")]
        first = np.searchsorted(view, block - reach, side="left")
        runs = np.searchsorted(view, block + reach, side="right") - first
        order = np.argsort(-runs)
        block, first = block[order], first[order]
        longer = block.size - np.cumsum(np.bincount(runs))  # runs longer than m
        for m, k in enumerate(longer[:-1]):
            if fill + k > _BLOCK:
                counts += np.histogram(pending[:fill], bins=edges)[0]
                fill = 0
            np.subtract(view[first[:k] + m], block[:k], out=pending[fill:fill + k])
            fill += k
    counts += np.histogram(pending[:fill], bins=edges)[0]
    return counts


def _first_stop_counts(starts: np.ndarray, stops: np.ndarray,
                       edges: np.ndarray, sign: int) -> np.ndarray:
    """Histogram of sign * (first stop at or after each start - start).

    The classic TAC, in blocks of ``_BLOCK`` starts, each searching the
    stops from its first start up to the first stop at or after its last
    start.  ``sign`` -1 gives the mirrored side, which drops exact-zero
    delays: those belong to the positive side only.
    """
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for b in range(0, starts.size, _BLOCK):
        block = starts[b:b + _BLOCK]
        view = stops[np.searchsorted(stops, block[0], side="left"):
                     np.searchsorted(stops, block[-1], side="left") + 1]
        idx = np.searchsorted(view, block, side="left")
        has = idx < view.size
        delays = view[idx[has]] - block[has]
        if sign < 0:
            delays = delays[delays > 0]
        counts += np.histogram(sign * delays, bins=edges)[0]
    return counts


def _checked_stream(name: str, times_ns: np.ndarray) -> np.ndarray:
    """The click times as floats, refused unless non-empty, finite and sorted.

    Checked in overlapping blocks, so the check holds no temporary that grows
    with the stream; NaN fails every comparison and so reads as unsorted.
    """
    times = np.asarray(times_ns, dtype=float)
    if times.size == 0:
        raise ValueError("both click streams must be non-empty")
    for b in range(0, times.size, _BLOCK):
        seg = times[b:b + _BLOCK + 1]
        if not (np.all(seg[1:] >= seg[:-1])
                and math.isfinite(seg[0]) and math.isfinite(seg[-1])):
            raise ValueError(f"{name} must be finite and time-sorted")
    return times


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
    counts once, in the bin starting at 0; start-stop also counts it once,
    on the positive side.  Both estimators work in blocks of a fixed number
    of starts, all-pairs lag by lag up to the block's longest run of stops
    through a buffer of a block of delays, so memory is bounded
    independently of the click count and the pair count.

    Raises ``ValueError`` on an empty, unsorted or non-finite stream, on a
    ``bin_ns`` or ``window_ns`` that is not finite or not in order, and when
    ``window_ns / bin_ns`` exceeds ``MAX_BINS_PER_SIDE``.
    """
    starts = _checked_stream("starts_ns", starts_ns)
    stops = _checked_stream("stops_ns", stops_ns)
    if not (math.isfinite(bin_ns) and bin_ns > 0):
        raise ValueError(f"bin_ns must be finite and > 0, got {bin_ns}")
    if not (math.isfinite(window_ns) and window_ns > bin_ns):
        raise ValueError(f"window_ns must be finite and > bin_ns, got {window_ns}")
    if window_ns / bin_ns > MAX_BINS_PER_SIDE:
        raise ValueError(f"window_ns / bin_ns = {window_ns / bin_ns:.3g} exceeds "
                         f"{MAX_BINS_PER_SIDE} bins per side")
    n_bins = int(round(window_ns / bin_ns))
    edges = bin_ns * np.arange(-n_bins, n_bins + 1)
    if estimator == "all-pairs":
        counts = _all_pairs_counts(starts, stops, edges)
    elif estimator == "start-stop":
        counts = (_first_stop_counts(starts, stops, edges, 1)
                  + _first_stop_counts(stops, starts, edges, -1))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return Histogram(edges, counts, n_starts=starts.size, n_stops=stops.size)


def normalize_g2(h: Histogram, duration_ns: float) -> CorrelationTrace:
    """Histogram to CW-normalized g2.

    Divides by n_starts * r_stop * bin, the uncorrelated coincidence level,
    with the stop rate r_stop = n_stops / ``duration_ns`` inferred from the
    recorded totals over the acquisition time.  The pulsed g2 comes with
    :func:`pulsed_peak_areas`.
    """
    if not (math.isfinite(duration_ns) and duration_ns > 0):
        raise ValueError(f"cw normalization needs a finite duration_ns > 0, "
                         f"got {duration_ns}")
    denom = h.n_starts * (h.n_stops / duration_ns) * h.bin_width_ns
    if denom <= 0:
        raise ValueError("zero normalization: no uncorrelated coincidence level")
    return CorrelationTrace(h.centers_ns, h.counts / denom)


def pulsed_peak_areas(h: Histogram, rep_period_ns: float,
                      half_window_ns: float) -> PeakAreaReport:
    """Integrate counts around every multiple of the pulse period in range.

    The report's ``g2`` is the histogram in units of the mean side-peak
    level per bin, mean side area * bin / (2 * half_window): the pulsed g2.
    """
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
    return PeakAreaReport(ratio=central / mean_side,
                          peak_offsets=offsets, peak_areas=areas,
                          half_window_ns=half_window_ns,
                          g2=h.counts / (mean_side * h.bin_width_ns / (2.0 * half_window_ns)))


def poisson_stream(rate_per_ns: float, duration_ns: float, seed: int,
                   stream_index: int = 0) -> np.ndarray:
    """Homogeneous Poisson click times on [0, duration); the uncorrelated reference."""
    for name, value in (("rate_per_ns", rate_per_ns), ("duration_ns", duration_ns)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    rng = philox(seed, stream_index)
    n_expected = rate_per_ns * duration_ns
    gaps = rng.exponential(1.0 / rate_per_ns, size=int(n_expected + 6 * math.sqrt(n_expected) + 10))
    times = np.cumsum(gaps)
    while times[-1] < duration_ns:
        gaps = rng.exponential(1.0 / rate_per_ns, size=gaps.size)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    return times[times < duration_ns]
