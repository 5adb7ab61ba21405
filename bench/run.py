#!/usr/bin/env python3
"""Benchmark of ptpoint's three solve routes, end to end and layer by layer.

    python3 bench/run.py --workload origin_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30            # every workload, one process each

A run imports ptpoint from src/ next to this directory, makes its inputs from
the seed, and runs the workload as a closed loop (one caller, each op waits
for the previous one) in whole rounds until --seconds have passed.  Outputs
are checked against bench/reference.py after the timed loop.  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0 and per layer with --trace 1.  Results and
traces are written to bench/out/.
"""

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("origin_sweep", "two_point_solve", "fd_crosscheck")
SETUP_PROBES = 5
# BLAS threads for every benchmark process: fixed, and at most the cores this process may use
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package():
    """Import ptpoint, numpy and the benchmark modules; ptpoint must come from ROOT/src."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import ptpoint
    from ptpoint import boundary, cli, errors, finitediff, spectra, states

    if Path(ptpoint.__file__).resolve().parent != (src / "ptpoint").resolve():
        raise SystemExit(f"error: ptpoint imported from {ptpoint.__file__}, not {src}")
    return {"cli": cli, "boundary": boundary, "spectra": spectra, "states": states,
            "finitediff": finitediff, "errors": errors}


def _setup(workload, seed, workdir):
    """Import, input generation and one warm-up op: the work that precedes the first timed op."""
    pkg = _import_package()
    import workloads

    wl = workloads.WORKLOADS[workload](pkg, seed, workdir)
    wl.warmup()
    return pkg, wl


def _workdir(tag):
    path = OUT_DIR / f"tmp-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _probe_setup_seconds(workload, seed):
    """Median over fresh processes of the time from process start to the first timed op."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        # perf_counter is CLOCK_MONOTONIC, one clock for every process on the machine
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _timed_rounds(wl, seconds, failure, tracer=None, stats=None):
    """Run whole rounds until `seconds` have passed; returns per-op records and round times.

    An op that raises `failure` (the package's error base class) counts as failed.
    """
    stats = stats if stats is not None else {"ops": [], "rounds": []}
    start = time.perf_counter()
    while True:
        round_time = 0.0
        for op in wl.ops():
            span = tracer.open("bench.op") if tracer else None
            t0 = time.perf_counter()
            try:
                output = wl.run(op)
                error = None
            except failure as exc:
                output, error = None, type(exc).__name__
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            round_time += dt
            stats["ops"].append((op, dt, error))
            if error is None:
                wl.record(op, output)
        stats["rounds"].append(round_time)
        if time.perf_counter() - start >= seconds:
            return stats


def _summarize_ops(wl, stats):
    attempted = len(stats["ops"])
    failed = [(op, err) for op, _, err in stats["ops"] if err is not None]
    unexpected = sorted({op for op, _ in failed if not wl.expected_failure(op)})
    return attempted, failed, unexpected


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args):
    setup_s = _probe_setup_seconds(args.workload, args.seed)
    workdir = _workdir(args.workload)
    try:
        pkg, wl = _setup(args.workload, args.seed, workdir)
        stats = _timed_rounds(wl, args.seconds, pkg["errors"].PointInteractionError)
        peak = _peak_rss_mib()
        errors = wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times = [dt for _, dt, _ in stats["ops"]]
    models = sum(wl.models_per_op(op) for op, _, _ in stats["ops"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "models_per_s": (models / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    return wl, stats, errors, metrics, {"rounds": len(stats["rounds"]), "models": models}


def run_traced(args):
    """Alternate untraced and traced rounds; per-layer metrics come from the traced ones."""
    import layers
    import tracing

    workdir = _workdir(args.workload)
    try:
        pkg, wl = _setup(args.workload, args.seed, workdir)
        tracer = tracing.Tracer(pkg)
        failure = pkg["errors"].PointInteractionError
        plain = {"ops": [], "rounds": []}
        traced = {"ops": [], "rounds": []}
        start = time.perf_counter()
        while True:
            _timed_rounds(wl, 0, failure, stats=plain)
            tracer.install()
            try:
                _timed_rounds(wl, 0, failure, tracer=tracer, stats=traced)
            finally:
                tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
        errors = wl.check()
        spans = tracer.arrays()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace_{args.workload}_seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = layers.per_layer_metrics(spans, len(traced["rounds"]))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced["rounds"]) / statistics.median(plain["rounds"]), "ratio")
    stats = {"ops": plain["ops"] + traced["ops"], "rounds": plain["rounds"] + traced["rounds"]}
    return wl, stats, errors, metrics, {"rounds": len(stats["rounds"]), "traced_rounds": len(traced["rounds"])}


def _blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def run_one(args):
    runner = run_traced if args.trace else run_untraced
    wl, stats, errors, metrics, extra = runner(args)
    attempted, failed, unexpected = _summarize_ops(wl, stats)
    for msg in errors[:20]:
        print(f"check failed: {msg}")
    for op in unexpected:
        print(f"unexpected failure: {wl.label(op)}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = dict(_blas_info(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, **extra)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    print(f"# attempted {attempted} failed {len(failed)} (by exception: "
          f"{dict(sorted(collections.Counter(err for _, err in failed).items()))}) correct {result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(dict(result, info=info), indent=1))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after another; a table of results."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.rstrip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="timed length of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ptpoint" / "__init__.py").is_file():
        print(f"error: no ptpoint package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe:
        workdir = _workdir(f"probe-{args.workload}")
        try:
            _setup(args.workload, args.seed, workdir)
            print(time.perf_counter())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
