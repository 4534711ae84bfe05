"""cavqed benchmark: seeded workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload me_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload analysis --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics and writes the spans to
``.perfbench_out/``.  ``--smoke`` runs one toy-size job of every type with
its check and exits non-zero if any fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Seed streams: the timed blocks and the warm-up jobs never share inputs.
STREAM_BLOCK, STREAM_WARMUP, STREAM_SMOKE = 0, 1, 2
SETUP_PROBES = 4      # extra fresh-process set-ups whose median joins the run's own


def _pin_threads() -> int:
    """One BLAS thread and one trajectory process; returns nproc.

    The matrices here are at most a few hundred wide, so a second BLAS thread
    gains nothing measurable on two cores, and when another process holds the
    second core the threads' hand-offs slowed a block more than fivefold.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["CAVQED_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def _import_program():
    """Import cavqed from this checkout's src/ and nowhere else."""
    if not (SRC / "cavqed" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cavqed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavqed
    if Path(cavqed.__file__).resolve().parent != SRC / "cavqed":
        sys.exit(f"perfbench: imported cavqed from {cavqed.__file__}, not {SRC}")
    import spans as tracing
    import workloads
    return tracing, workloads


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of this checkout; git does not look above it for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def environment(nproc: int, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "cavqed_threads": os.environ["CAVQED_THREADS"],
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed jobs, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, job, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{job.kind} {job.params}: {detail}")


def run_jobs(jobs, workload, rec, workdir, tally, first_id=0) -> list[float]:
    """Run jobs back to back; returns each job's latency in seconds."""
    latencies = []
    for offset, job in enumerate(jobs):
        rec.begin_job(first_id + offset, job.kind)
        start = time.perf_counter()
        try:
            ok, detail = workload.runners[job.kind](job, rec, workdir)
        except Exception as exc:      # a job that raises counts as failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        rec.end_job()
        tally.record(job, ok, detail)
    return latencies


def make_block(workloads, name: str, seed: int, stream: int, index: int, toy: bool):
    """The jobs of one block, in run order."""
    import numpy as np
    rng = np.random.default_rng([seed, stream, index])
    return workloads.spread_in_time(workloads.WORKLOADS[name].block(rng, toy), rng)


def set_up(workloads, tracing, name, seed, workdir, t0):
    """Input generation for the first block plus one warm-up job per type.

    Returns the first block inside a list, ``pending``, that the timed or
    traced phase empties, so that no caller keeps a block's inputs alive once
    it has run.
    """
    pending = [make_block(workloads, name, seed, STREAM_BLOCK, 0, toy=False)]
    warm = make_block(workloads, name, seed, STREAM_WARMUP, 0, toy=True)
    run_jobs(warm, workloads.WORKLOADS[name], tracing.Recorder(traced=False),
             workdir, Tally())
    return pending, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one more fresh process, run after the timed phase."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_phase(workloads, tracing, name, seed, seconds, pending, workdir, tally):
    """Blocks of jobs until ``seconds`` have passed; at least one block."""
    workload = workloads.WORKLOADS[name]
    rec = tracing.Recorder(traced=False)
    walls, latencies = [], []
    started = time.perf_counter()
    block, index = pending.pop(), 0
    while True:
        t0 = time.perf_counter()
        latencies += run_jobs(block, workload, rec, workdir, tally, len(latencies))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started >= seconds:
            return walls, latencies
        index += 1
        block = None      # free this block's inputs before the next are made
        block = make_block(workloads, name, seed, STREAM_BLOCK, index, toy=False)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of the
    order statistics around rank q*n.

    Where jobs near the quantile differ in cost, a single order statistic
    is one job's latency at one moment; the weighted mean over its
    neighbours varies far less from run to run.  With at least 100 jobs the
    0.9 quantile keeps ten jobs beyond it.
    """
    import numpy as np
    from scipy.special import betainc
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ ordered)


def end_to_end(walls, latencies, setup_times) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (harrell_davis(latencies, 0.5), "s"),
        "job_p90_s": (harrell_davis(latencies, 0.9), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_run(workloads, tracing, name, seed, pending, workdir, tally, env):
    """Untraced then traced pass over the same block; per-layer metrics."""
    workload = workloads.WORKLOADS[name]
    block = pending.pop()
    t0 = time.perf_counter()
    run_jobs(block, workload, tracing.Recorder(traced=False), workdir, tally)
    untraced_wall = time.perf_counter() - t0
    rec = tracing.Recorder(traced=True)
    t0 = time.perf_counter()
    run_jobs(block, workload, rec, workdir, tally)
    traced_wall = time.perf_counter() - t0
    metrics = tracing.per_layer_metrics(rec, traced_wall, untraced_wall)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "environment": env,
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "job"],
        "spans": rec.spans,
        "self_s": rec.self_times(),
        "counts": rec.counts,
        "metrics": metrics,
    }))
    print(f"perfbench: {len(rec.spans)} spans written to {path}", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------

def smoke(workloads, tracing, names, workdir) -> int:
    """One toy-size job of every type with its check; also checks the metric list."""
    failures = 0
    for name in names:
        rec = tracing.Recorder(traced=True)
        jobs = make_block(workloads, name, 0, STREAM_SMOKE, 0, toy=True)
        for job in jobs:
            tally = Tally()
            run_jobs([job], workloads.WORKLOADS[name], rec, workdir, tally)
            status = "ok" if tally.failed == 0 else "FAIL " + "; ".join(tally.messages)
            print(f"{name:10s} {job.kind:16s} {status}")
            failures += tally.failed
        metrics = tracing.per_layer_metrics(rec, 1.0, 1.0)
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = [m["name"] for m in spec["per_layer"]]
        if declared != list(metrics):
            print("per-layer metrics differ from BENCHMARK.json", file=sys.stderr)
            failures += 1
        if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
            print("workloads differ from BENCHMARK.json", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one toy-size job of each type and check it")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = _pin_threads()
    tracing, workloads = _import_program()
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(workloads, tracing,
                         [args.workload] if args.workload else list(workloads.WORKLOADS),
                         workdir)
        pending, setup_s = set_up(workloads, tracing, args.workload, args.seed,
                                  workdir, t0)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(nproc, args.workload, args.seed)
        tally = Tally()
        if args.trace:
            metrics = traced_run(workloads, tracing, args.workload, args.seed, pending,
                                 workdir, tally, env)
        else:
            walls, latencies = timed_phase(workloads, tracing, args.workload, args.seed,
                                           args.seconds, pending, workdir, tally)
            setups = [setup_s] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            metrics = end_to_end(walls, latencies, setups)
            env["blocks"] = len(walls)
            env["setup_s_each"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in tally.messages:
        print(f"perfbench: failed job: {message}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
