"""hsimvt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hsimvt is imported from ``src/``.
Set-up (scene generation, HSZ inputs, run config) happens here, repeated
(see ``workloads.repeat_timed``); the measured stages then run in a fresh
child process, so that its peak RSS is the workload's own. Every timing is
rescaled to a nominal host speed (see ``hostspeed``). The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it is a report with raw samples, checks,
digests and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 170

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_px_per_s": "px/s",
    "test_oa": "fraction",
    "preprocess_s": "s",
    "map_px_per_s": "px/s",
    "fd_evals_per_s": "evals/s",
}
RATES = ("train_px_per_s", "map_px_per_s", "fd_evals_per_s")
TIMED = RATES + ("preprocess_s",)


def import_program():
    """Import hsimvt from this checkout's ``src/``; exit 1 if it is not there."""
    sys.path[:0] = [SRC, BENCH]
    try:
        import hsimvt
    except ImportError as exc:
        sys.exit(f"bench: cannot import hsimvt from {SRC}: {exc}")
    if not os.path.abspath(hsimvt.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: hsimvt came from {hsimvt.__file__}, not {SRC}")


def blas_info():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    return {"numpy": np.__version__, "blas": blas_info(), "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_commit": git_commit()}


def median(values):
    """Median of a run's samples. Samples are already rescaled to the nominal
    host speed (see ``hostspeed``); the median also drops the seconds-long
    stalls that other tenants' disk traffic sometimes adds to a file write."""
    return float(statistics.median(values)) if values else None


def child_main(args):
    """Measured stages of one run; prints one JSON line for the parent."""
    import hostspeed
    import spans as tracing
    import workloads

    def prepare():
        pipeline = workloads.Pipeline(workloads.WORKLOADS[args.workload], args.seed,
                                      args.child)
        pipeline.warm_up()
        return pipeline

    prep, pipeline = workloads.repeat_timed(prepare)
    tracer = tracing.Tracer() if args.trace else None
    layer_units, error = [], None
    try:
        with hostspeed.Sampler() as pipeline.sampler:
            layer_units = pipeline.run(args.seconds, tracer)
    except Exception as exc:  # the failed stage is already counted; report, don't crash
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    doc = {
        "prep_s": prep,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "samples": pipeline.samples(),
        "traced_samples": pipeline.samples(traced=True),
        "stage_seconds": dict(pipeline.stage_seconds),
        "slowness": pipeline.slowness(),
        "digests": pipeline.digests,
        "failed_checks": [vars(c) for c in pipeline.checks if not c.ok],
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "error": error,
        "layer": {k: median([u[k] for u in layer_units]) for k in
                  (layer_units[0] if layer_units else {})},
        "env": environment(),
    }
    if tracer is not None:
        tracing.write_spans(tracer, os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(doc))


def child_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def parent_main(args):
    import spans as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    # On SIGTERM, unwind: subprocess.run kills and waits for the child, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("bench: terminated"))
    try:
        setup, config_path = workloads.repeat_timed(
            lambda: workloads.write_inputs(workload, args.seed, workdir))
        cmd = [sys.executable, os.path.abspath(__file__), "--child", config_path,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench: measuring process exited {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = child["samples"]
    e2e = {name: median(samples.get(name, [])) for name in TIMED + ("test_oa",)}
    e2e["setup_s"] = median(setup) + median(child["prep_s"])
    e2e["peak_rss_mb"] = child["peak_rss_mb"]
    failed = max(child["failed"], 1 if child["error"] else 0)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "setup_s": setup, "prep_s": child["prep_s"],
        "samples": samples, "traced_samples": child["traced_samples"],
        "stage_seconds": child["stage_seconds"], "slowness": child["slowness"],
        "digests": child["digests"],
        "failed_checks": child["failed_checks"], "error": child["error"],
        "env": child["env"],
    }
    if args.trace:
        metrics = dict(child["layer"])
        for name in TIMED:
            plain = median(samples.get(name, []))
            traced = median(child["traced_samples"].get(name, []))
            if plain and traced:
                slower = plain / traced if name in RATES else traced / plain
                metrics[f"trace.overhead.{name}"] = slower - 1.0
            else:
                metrics[f"trace.overhead.{name}"] = 0.0
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = e2e
        units = END_TO_END
    report["end_to_end"] = e2e
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": max(1, child["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    if args.child:
        child_main(args)
    else:
        parent_main(args)


if __name__ == "__main__":
    main()
