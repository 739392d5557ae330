"""lsqflow benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload fixture-corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Jobs are driven one at a time by a single caller (a closed loop)
in whole passes over the workload's job list, until another pass would
overrun ``--seconds``. Every output is checked against the oracles in
``oracles.py`` after its job, outside the timed region; a failed check is
counted, never fatal.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one
untraced and one traced pass, then prints the per-layer metrics derived
from spans recorded around calls into each module's public functions and
numpy.linalg, plus the tracing overhead (traced minus untraced wall time).
Human-readable lines come first; the last line of stdout is one JSON
object. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
SETUP_REPEATS = 9
SCALE_REPEATS = 3

# Per-layer figures in the JSON result of a traced run, besides the scale
# probes. Layer times that some workload never enters (and which would read
# 0 on every run of it) are printed in the table only; their call counts
# are in the JSON.
PER_LAYER_TIMES = ("problem.solve_least_squares.s", "spectral.assemble.s",
                   "spectral.m_spectrum.s", "linalg.eigvals.s", "linalg.lstsq.s",
                   "env.calib_ms", "trace.overhead_s")
PER_LAYER_COUNTS = (
    "config.parse_config.calls", "problem.solve_least_squares.calls",
    "graphs.spectrum.calls", "graphs.support_report.calls",
    "spectral.assemble.calls", "spectral.check_condition.calls",
    "spectral.m_spectrum.calls", "spectral.zero_space_projector.calls",
    "spectral.epsilon_star.calls", "simulate.steps", "simulate.samples",
    "simulate.diverged", "simulate.write_trajectory_csv.bytes", "switching.steps",
    "switching.samples", "plotting.emit_plot.bytes", "linalg.eigvals.calls",
    "linalg.svd.calls", "linalg.eigh.calls", "linalg.lstsq.calls", "trace.spans")


def unit_of(name: str) -> str:
    if name.endswith(".bytes"):
        return "bytes"
    for suffix, unit in ((".us_per_step", "us"), ("_mb", "MB"), ("_ms", "ms"), (".ms", "ms"),
                         ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_package():
    """Import numpy with a fixed BLAS thread count, then lsqflow from src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import lsqflow
    if not os.path.abspath(lsqflow.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lsqflow imported from {lsqflow.__file__}, not from {SRC}")
    return lsqflow


def source_digest() -> str:
    """Digest of the package sources and fixtures: one per commit."""
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
                   + glob.glob(os.path.join(ROOT, "fixtures", "**", "*.json"), recursive=True))
    for path in files:
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unavailable"


def blas_threads(np) -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def calibrate(np) -> float:
    """Median ms of a fixed small-matvec loop: shows host-speed drift."""
    A = np.random.default_rng(0).standard_normal((16, 16)) * 0.05
    times = []
    for _ in range(3):
        u = np.ones(16)
        t0 = time.perf_counter()
        for _ in range(20000):
            u = u + 0.01 * (A @ u)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(np),
    }


def measure_setup(args) -> float:
    """Median seconds for a fresh process to import lsqflow and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def run_pass(workload, jobs, index: int, tracer=None) -> tuple:
    """One pass over the jobs: (latencies in s, {(pass, job): failure messages})."""
    latencies = []
    failures = {}
    for job in jobs:
        value = exc = None
        t0 = time.perf_counter()
        try:
            value = job.call() if tracer is None else tracer.span("job", job.call)
        except Exception as err:   # counted as a failed operation by the check
            exc = err
        latencies.append(time.perf_counter() - t0)
        try:
            messages = job.check(value, exc)
        except Exception as err:
            messages = [f"check raised {type(err).__name__}: {err}"]
        if messages:
            failures[index, job.name] = messages
    for name, messages in workload.finish_pass().items():
        failures.setdefault((index, name), []).extend(messages)
    return latencies, failures


def run_passes(workload, jobs, seconds: float) -> list:
    """Whole passes, each on fresh inputs, until the next would end after ``seconds``."""
    passes = []
    begin = time.perf_counter()
    while True:
        index = len(passes)
        passes.append(run_pass(workload, jobs if not index else workload.jobs(index), index))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def check_digest_store(workload) -> dict:
    """Artifact digests (of each job's first pass) must match every earlier run
    of the same sources."""
    digests = getattr(workload, "digests", None)
    if not digests:
        return {}
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(source_digest(), {})
    failures = {(0, name): ["artifacts differ from an earlier run of the same sources"]
                for name, digest in digests.items() if known.setdefault(name, digest) != digest}
    with open(path, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return failures


def scale_probes(lf, np, seed: int, families, sizes) -> dict:
    """Untraced median ms of three layer calls at the smallest and largest N."""
    rng = np.random.default_rng(seed)
    out = {}

    def timed(fn, *a):
        times = []
        for _ in range(SCALE_REPEATS):
            t0 = time.perf_counter()
            fn(*a)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    for family in families:
        for n in (min(sizes), max(sizes)):
            graph = lf.make_family(family, n)
            problem = lf.NetworkLinearEquation(rng.standard_normal((n, 2)), rng.standard_normal(n))
            tag = f"{family}-{n}"
            out[f"scale.support_report.{tag}.ms"] = timed(
                lf.support_report, lf.spectrum(lf.laplacian(graph)))
            out[f"scale.check_condition.{tag}.ms"] = timed(lf.check_condition, problem, graph)
            out[f"scale.m_spectrum.{tag}.ms"] = timed(lf.m_spectrum, lf.assemble(problem, graph))
    return out


def layer_table(totals: dict, counts, extra: dict) -> dict:
    """Every per-layer figure, by name, from span totals and call-site counters."""
    def s(name, stat="s"):
        return totals.get(name, {}).get(stat, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per_step(name, steps):
        return s(name) * 1e6 / steps if steps else 0.0

    table = {"cli.self_s": sum(v["self_s"] for k, v in totals.items() if k.startswith("cli."))}
    for name in ("config.parse_config", "problem.solve_least_squares", "graphs.spectrum",
                 "graphs.support_report", "spectral.assemble", "spectral.m_spectrum",
                 "spectral.zero_space_projector", "spectral.epsilon_star"):
        table[f"{name}.s"] = s(name)
        table[f"{name}.calls"] = calls(name)
    table["spectral.check_condition.self_s"] = s("spectral.check_condition", "self_s")
    table["spectral.check_condition.calls"] = calls("spectral.check_condition")
    table["spectral.build_spectral_report.self_s"] = s("spectral.build_spectral_report", "self_s")
    table["simulate.simulate_ct.us_per_step"] = per_step(
        "simulate.simulate_ct", counts["simulate.simulate_ct.steps"])
    table["simulate.simulate_dt.us_per_step"] = per_step(
        "simulate.simulate_dt", counts["simulate.simulate_dt.steps"])
    for name in ("simulate.steps", "simulate.samples", "simulate.diverged",
                 "switching.steps", "switching.samples"):
        table[name] = counts[name]
    table["simulate.write_trajectory_csv.s"] = s("simulate.write_trajectory_csv")
    table["simulate.write_trajectory_csv.bytes"] = counts["simulate.write_trajectory_csv.bytes"]
    table["switching.simulate_switching.us_per_step"] = per_step(
        "switching.simulate_switching", counts["switching.simulate_switching.steps"])
    table["plotting.emit_plot.s"] = s("plotting.emit_plot")
    table["plotting.emit_plot.bytes"] = counts["plotting.emit_plot.bytes"]
    for fn in ("eigvals", "svd", "eigh", "lstsq"):
        table[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        table[f"linalg.{fn}.s"] = s(f"linalg.{fn}")
    table.update(extra)
    return table


def print_metric(name, value, unit, note="") -> None:
    shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.10g}"
    print(f"{name:<44} {shown} {unit:<6} {note}".rstrip())


def result(failed_jobs: dict, attempted: int, metrics: dict) -> dict:
    failed = len(failed_jobs)
    for (index, name), messages in sorted(failed_jobs.items()):
        for message in messages:
            print(f"FAILED pass {index} {name}: {message}", file=sys.stderr)
    print_metric("ops_failed", failed / attempted, "share",
                 f"({failed} failed of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


def merge_failures(*groups) -> dict:
    merged = {}
    for group in groups:
        for name, messages in group.items():
            merged.setdefault(name, []).extend(messages)
    return merged


def untraced_run(args, lf, np, workload, jobs) -> dict:
    setup_s = measure_setup(args)
    passes = run_passes(workload, jobs, args.seconds)
    walls = [sum(lat) for lat, _ in passes]
    latencies = [x for lat, _ in passes for x in lat]
    p50, p90 = np.percentile(latencies, [50, 90]) * 1e3
    failures = merge_failures(*(f for _, f in passes), check_digest_store(workload))
    job_time = sum(walls)
    steps = workload.stats["steps"]

    print(f"passes {len(passes)}, {len(jobs)} jobs per pass, {len(latencies)} job samples; "
          f"pass walls {' '.join(f'{w:.3f}' for w in walls)} s")
    print_metric("setup_s", setup_s, "s", f"(median of {SETUP_REPEATS} fresh processes)")
    print_metric("wall_s", statistics.median(walls), "s", f"(median of {len(passes)} passes)")
    if steps:
        print_metric("steps_per_s", steps / job_time, "1/s", f"({steps} steps)")
    print_metric("job_p50_ms", p50, "ms", f"(n={len(latencies)})")
    print_metric("job_p90_ms", p90, "ms", f"(n={len(latencies)})")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_metric("peak_rss_mb", peak, "MB")
    for name, value in workload.properties(len(passes)).items():
        print_metric(f"property.{name}", value, "")
    # job_p50_ms is printed only: its run-to-run spread on a noisy host came
    # too close to the largest bound a metric may carry to gate on it.
    metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
               "job_p90_ms": float(p90), "peak_rss_mb": peak}
    return result(failures, len(latencies), metrics)


def traced_run(args, lf, np, workload, jobs, calib_ms: float) -> dict:
    from tracer import Tracer
    from workloads import FamilyScan

    extra = scale_probes(lf, np, args.seed, FamilyScan.FAMILIES, FamilyScan.SIZES)
    plain_lat, plain_fail = run_pass(workload, jobs, 0)
    tracer = Tracer()
    tracer.install(lf)
    try:
        traced_lat, traced_fail = run_pass(workload, jobs, 1, tracer)
    finally:
        tracer.uninstall()
    failures = merge_failures(plain_fail, traced_fail, check_digest_store(workload))
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    extra["env.calib_ms"] = calib_ms
    extra["trace.overhead_s"] = sum(traced_lat) - sum(plain_lat)
    extra["trace.spans"] = len(tracer.start)
    table = layer_table(tracer.totals(), tracer.counts, extra)
    print(f"traced pass {sum(traced_lat):.4f} s, untraced pass {sum(plain_lat):.4f} s")
    for name, value in table.items():
        print_metric(name, value, unit_of(name))
    for name, value in workload.properties(2).items():
        print_metric(f"property.{name}", value, "")
    scale = [k for k in extra if k.startswith("scale.")]
    keep = PER_LAYER_TIMES + PER_LAYER_COUNTS + tuple(scale)
    return result(failures, len(plain_lat) + len(traced_lat), {k: table[k] for k in keep})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lf = import_package()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scratch = os.path.join(OUT, f"artifacts-{os.getpid()}")
    workload = WORKLOADS[args.workload](lf, args.seed, ROOT, scratch)
    jobs = workload.jobs(0)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = environment(np)
    calib_ms = calibrate(np)
    env["calib_ms"] = round(calib_ms, 3)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            out = traced_run(args, lf, np, workload, jobs, calib_ms)
        else:
            out = untraced_run(args, lf, np, workload, jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
