"""Call recorder for the benchmark: error counts always, spans and counts when traced.

Every call the benchmark makes into a cavqed module goes through
``Recorder.call``, which names it ``<module>.<qualified name>`` after the
callable itself (``dynamics.build_model``, ``polariton.Spectrum.to_wavelength``).  Untraced, the
recorder only counts calls that raised, so end-to-end timings carry almost no
overhead.  Traced, it also records one span per call (name, start, end,
parent span, job id), the work counts read off the returned objects at the
same boundary, and, for the two memory-heavy kernels, the ``tracemalloc``
peak.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter

MODULES = ("dynamics", "trajectories", "hbt", "fitkit", "polariton",
           "instrument", "specdiff", "csvio", "cli")

# Kernels whose Python-level allocation peak is recorded in traced runs.
MEMORY_TRACED = ("dynamics.emission_spectrum", "hbt.start_stop_histogram")

FITS = ("fit_decay", "fit_anticrossing", "fit_lorentzians", "fit_lifetime_curve")

PHOTON_CHANNELS = ("cavity_loss", "exciton_radiative")


def _counts_at_boundary(name: str, result, args) -> dict:
    """Work done by one call, read off what it returned."""
    if name in ("trajectories.run_cw", "trajectories.run_pulsed"):
        per_channel = result.counts()
        return {"trajectories.jumps": len(result),
                "trajectories.photons": sum(per_channel.get(c, 0)
                                            for c in PHOTON_CHANNELS)}
    if name == "hbt.start_stop_histogram":
        return {"hbt.pairs": int(result.counts.sum())}
    if name.startswith("fitkit.fit_"):
        return {"fitkit.fits": 1, "fitkit.lm_iterations": result.n_iterations,
                "fitkit.converged": int(result.converged)}
    if name == "dynamics.emission_spectrum":
        return {"dynamics.emission_spectrum.points": result.axis.size}
    if name in ("dynamics.g2_auto", "dynamics.g2_cross"):
        return {"dynamics.g2.delays": result.tau_ns.size}
    if name == "csvio.write_csv":
        return {"csvio.bytes": os.path.getsize(args[0])}
    return {}


class Recorder:
    """Routes benchmark calls into cavqed; see the module docstring."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_mb: dict = {}
        self.spans: list = []      # (id, name, start, end, parent, job)
        self._job_span = None
        self._job = None
        self._origin = time.perf_counter()

    def call(self, fn, *args, **kwargs):
        module = fn.__module__.rsplit(".", 1)[-1]
        if not self.traced:
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
        name = f"{module}.{fn.__qualname__}"
        watch_memory = name in MEMORY_TRACED
        if watch_memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors[module] += 1
            raise
        finally:
            end = time.perf_counter()
            if watch_memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
            self.spans.append([len(self.spans), name, start - self._origin,
                               end - self._origin, self._job_span, self._job])
        self.counts.update(_counts_at_boundary(name, result, args))
        return result

    def begin_job(self, job_id: int, kind: str) -> None:
        if self.traced:
            self._job = job_id
            self._job_span = len(self.spans)
            self.spans.append([self._job_span, f"job.{kind}",
                               time.perf_counter() - self._origin, None, None, job_id])

    def end_job(self) -> None:
        if self.traced:
            self.spans[self._job_span][3] = time.perf_counter() - self._origin
            self._job_span = self._job = None

    def self_times(self) -> dict:
        """Span duration minus the part its child spans cover, summed per name."""
        child = Counter()
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, name, start, end, _parent, _job in self.spans:
            out[name] += (end - start) - child[sid]
        return out


# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit).
PER_LAYER = (
    [("dynamics.build_model.busy_s", "s"),
     ("dynamics.steady_state.busy_s", "s"),
     ("dynamics.emission_spectrum.busy_s", "s"),
     ("dynamics.emission_spectrum.peak_alloc_mb", "MB"),
     ("dynamics.emission_spectrum.points", "count"),
     ("dynamics.g2.busy_s", "s"),
     ("dynamics.g2.delays", "count"),
     ("trajectories.busy_s", "s"),
     ("trajectories.jumps", "count"),
     ("trajectories.photons", "count"),
     ("trajectories.photon_frac", "ratio"),
     ("trajectories.jumps_per_s", "1/s"),
     ("photons_per_s", "1/s"),
     ("hbt.busy_s", "s"),
     ("hbt.pairs", "count"),
     ("hbt.pairs_per_s", "1/s"),
     ("hbt.start_stop_histogram.peak_alloc_mb", "MB")]
    + [(f"fitkit.{fit}.busy_s", "s") for fit in FITS]
    + [("fitkit.peak_locations.busy_s", "s"),
       ("fitkit.fits", "count"),
       ("fitkit.lm_iterations", "count"),
       ("fitkit.converged_frac", "ratio"),
       ("polariton.busy_s", "s"),
       ("polariton.calls", "count"),
       ("instrument.busy_s", "s"),
       ("specdiff.busy_s", "s"),
       ("csvio.write_csv.busy_s", "s"),
       ("csvio.read_csv.busy_s", "s"),
       ("csvio.bytes", "bytes"),
       ("cli.main.busy_s", "s")]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [(f"{m}.errors", "count") for m in MODULES]
    + [("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.uncovered_frac", "ratio")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(rec: Recorder, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer values of a traced pass, keyed as in ``PER_LAYER``."""
    busy = Counter()
    calls = Counter()
    for _sid, name, start, end, _parent, _job in rec.spans:
        busy[name] += end - start
        calls[name] += 1

    def module_busy(module: str) -> float:
        return sum(v for k, v in busy.items() if k.startswith(module + "."))

    self_t = rec.self_times()
    c = rec.counts
    values = {
        "dynamics.build_model.busy_s": busy["dynamics.build_model"],
        "dynamics.steady_state.busy_s": busy["dynamics.steady_state"],
        "dynamics.emission_spectrum.busy_s": busy["dynamics.emission_spectrum"],
        "dynamics.emission_spectrum.peak_alloc_mb":
            rec.peak_mb.get("dynamics.emission_spectrum", 0.0),
        "dynamics.emission_spectrum.points": c["dynamics.emission_spectrum.points"],
        "dynamics.g2.busy_s": busy["dynamics.g2_auto"] + busy["dynamics.g2_cross"],
        "dynamics.g2.delays": c["dynamics.g2.delays"],
        "trajectories.busy_s": module_busy("trajectories"),
        "trajectories.jumps": c["trajectories.jumps"],
        "trajectories.photons": c["trajectories.photons"],
        "trajectories.photon_frac": _ratio(c["trajectories.photons"],
                                           c["trajectories.jumps"]),
        "trajectories.jumps_per_s": _ratio(c["trajectories.jumps"],
                                           busy["trajectories.run_cw"]
                                           + busy["trajectories.run_pulsed"]),
        "photons_per_s": _ratio(c["trajectories.photons"], untraced_wall),
        "hbt.busy_s": module_busy("hbt"),
        "hbt.pairs": c["hbt.pairs"],
        "hbt.pairs_per_s": _ratio(c["hbt.pairs"], module_busy("hbt")),
        "hbt.start_stop_histogram.peak_alloc_mb":
            rec.peak_mb.get("hbt.start_stop_histogram", 0.0),
        "fitkit.peak_locations.busy_s": busy["fitkit.peak_locations"],
        "fitkit.fits": c["fitkit.fits"],
        "fitkit.lm_iterations": c["fitkit.lm_iterations"],
        "fitkit.converged_frac": _ratio(c["fitkit.converged"], c["fitkit.fits"]),
        "polariton.busy_s": module_busy("polariton"),
        "polariton.calls": sum(n for k, n in calls.items() if k.startswith("polariton.")),
        "instrument.busy_s": module_busy("instrument"),
        "specdiff.busy_s": module_busy("specdiff"),
        "csvio.write_csv.busy_s": busy["csvio.write_csv"],
        "csvio.read_csv.busy_s": busy["csvio.read_csv"],
        "csvio.bytes": c["csvio.bytes"],
        "cli.main.busy_s": busy["cli.main"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for fit in FITS:
        values[f"fitkit.{fit}.busy_s"] = busy[f"fitkit.{fit}"]
    covered = 0.0
    for m in MODULES:
        own = sum(v for k, v in self_t.items() if k.startswith(m + "."))
        values[f"{m}.self_s"] = own
        values[f"{m}.errors"] = rec.errors[m]
        covered += own
    values["trace.uncovered_frac"] = _ratio(traced_wall - covered, traced_wall)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
