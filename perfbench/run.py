"""biham3 benchmark: one workload, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/biham3``.  The run
times set-up in fresh interpreters, discards one warm-up job, then runs
jobs for ``--seconds`` seconds, checks every output apart from biham3,
and prints one JSON object as its last line.  With ``--trace 0`` the
metrics are the ``end_to_end`` ones of BENCHMARK.json; with
``--trace 1`` they are the ``per_layer`` ones, measured on every other
job with the tracer installed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 15  # timed fresh starts, after one discarded start
SETUP_TIMEOUT = 60
MIN_JOBS = 4  # per timed series, even when jobs outlast --seconds
P90_MIN_JOBS = 40


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(name, seed, outdir):
    """Seconds from spawning a fresh interpreter to the probe's ``ready``."""
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"), name, str(seed), outdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_jobs(work, seconds, tracer, check_errors, between=None):
    """Warm-up job, then jobs until ``seconds`` have passed.  With a
    tracer, every other job runs traced; ``between(elapsed)`` runs after
    each job.  Returns the untraced and the traced job times, and the
    attempted and failed job counts."""
    plain, traced = [], []
    attempted = failed = 0

    def collect(inputs, result):
        try:
            work.collect(inputs, result)
        except Exception as err:  # a wrong output: the run is reported incorrect
            check_errors.append(f"{type(err).__name__}: {err}")

    inputs = work.prepare(0)
    collect(inputs, work.run(inputs))
    start = time.perf_counter()
    k = 1
    min_attempts = MIN_JOBS * (2 if tracer else 1)
    while time.perf_counter() - start < seconds or attempted < min_attempts:
        inputs = work.prepare(k)
        on = tracer is not None and k % 2 == 0
        if on:
            tracer.install()
            tracer.job = k
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = work.run(inputs)
        except Exception:  # the operation failed; count it and go on
            result = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
        attempted += 1
        if result is None:
            failed += 1
        else:
            (traced if on else plain).append(dt)
            collect(inputs, result)
        result = None
        k += 1
        if between is not None:
            between(time.perf_counter() - start)
    return plain, traced, attempted, failed


def end_to_end(work, args, outdir, check_errors):
    """The fresh starts are spread over the run, between jobs, so that
    their median does not hang on one moment of a shared machine."""
    time_setup(args.workload, args.seed, outdir)  # compiles the bytecode
    starts = []

    def probe(elapsed):
        while len(starts) < SETUP_STARTS and elapsed >= len(starts) * args.seconds / SETUP_STARTS:
            starts.append(time_setup(args.workload, args.seed, outdir))

    plain, _, attempted, failed = run_jobs(work, args.seconds, None, check_errors, probe)
    probe(float("inf"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50 = statistics.median(plain)
    line = f"{len(plain)} jobs, p50 {p50:.4f} s"
    if len(plain) >= P90_MIN_JOBS:
        line += f", p90 {statistics.quantiles(plain, n=10)[-1]:.4f} s"
    print(f"{args.workload}: {line}; set-up starts {', '.join(f'{s:.4f}' for s in starts)} s")
    return attempted, failed, {
        "setup_s": statistics.median(starts),
        "job_p50_s": p50,
        "jobs_per_s": len(plain) / sum(plain),
        "peak_rss_mb": rss_mb,
    }


def per_layer(work, args, tracer, setup_totals, check_errors):
    plain, traced, attempted, failed = run_jobs(work, args.seconds, tracer, check_errors)
    jobs = tracer.snapshot()
    values = dict(setup_totals)
    for key, total in jobs.items():
        values[key] = values.get(key, 0) + total / len(traced)
    p50, p50_traced = statistics.median(plain), statistics.median(traced)
    values["trace.job_p50_s"] = p50_traced
    values["trace.overhead_s"] = p50_traced - p50
    print(
        f"{args.workload}: untraced p50 {p50:.4f} s ({len(plain)} jobs), "
        f"traced p50 {p50_traced:.4f} s ({len(traced)} jobs), "
        f"tracing overhead {p50_traced - p50:.4f} s ({p50_traced / p50 - 1:.0%})"
    )
    path = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "per_layer": values})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return attempted, failed, values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "biham3", "__init__.py")):
        print(f"error: no biham3 sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy loads OpenBLAS
    sys.path[:0] = [SRC, ROOT]

    tracer = None
    if args.trace:
        from perfbench import trace

        tracer = trace.Tracer()
        trace.import_traced(tracer, SRC)
    import biham3

    if os.path.dirname(os.path.abspath(biham3.__file__)) != os.path.join(SRC, "biham3"):
        print(f"error: biham3 imported from {biham3.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    outdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    check_errors = []
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, outdir)
        if tracer is None:
            attempted, failed, values = end_to_end(work, args, outdir, check_errors)
            wanted = spec["end_to_end"]
        else:
            work.prepare(0)
            setup_totals = tracer.snapshot()
            tracer.reset()
            tracer.uninstall()
            attempted, failed, values = per_layer(work, args, tracer, setup_totals, check_errors)
            wanted = spec["per_layer"]
        try:
            work.finish()
        except Exception as err:  # a wrong output: the run is reported incorrect
            check_errors.append(f"{type(err).__name__}: {err}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for err in check_errors:
        print(f"check failed: {err}", file=sys.stderr)
    print("checks: " + ("all outputs correct" if not check_errors else f"{len(check_errors)} failed"))
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
