#!/usr/bin/env python3
"""The slowfast benchmark.

One run of one workload:

    python3 perfbench/run.py --workload grid-q1 --seed 0 --seconds 60 --trace 0

prints every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) with its unit, the correctness tally (fail_frac), an environment
record, and as its last line one JSON object with the keys correct,
attempted, failed and metrics.  `--out FILE` also appends the run to a JSON
lines file.  Compare mode reads such files:

    python3 perfbench/run.py --compare OLD.jsonl [NEW.jsonl]

With one file it prints each metric's median and run-to-run spread; with two
it prints each metric's delta per workload, "unresolved" where the spread is
wider than the metric's bound in BENCHMARK.json.

This process imports only the standard library.  The workload runs in a
worker process (worker.py) that imports the package from `src/` of the
checkout this file sits in.  `setup_s` is the median, over several fresh
worker processes, of the time from starting the process to the end of its
set-up; the workload's own worker pauses before each pass while one of them
sets up, so the samples spread over the whole run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-q1", "banach-nf1", "reduce-l2")
SETUP_SAMPLES = 9          # at least; one per pass plus the workload's own process
TIMEOUT_S = 170
# BLAS pools are pinned to one thread unless the caller sets them
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args, setup_only=False, between=None):
    """Start a worker; return (seconds until READY, parsed result or None).

    With `between`, the worker pauses before each pass and `between()` runs
    while it waits.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else []) + (
               ["--pause"] if between else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if between else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = []
        for line in proc.stdout:
            if between is not None and line.strip() == "PAUSE":
                between()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()
    if ready.strip() != "READY" or code != 0:
        raise SystemExit(f"worker {' '.join(cmd[2:])} failed with exit code {code}")
    return setup, (None if setup_only else json.loads(lines[-1]))


def environment(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    env = worker_env()
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "seed": args.seed,
        "src_slowfast_lines": sum(len(p.read_text().splitlines())
                                  for p in sorted((SRC / "slowfast").glob("*.py"))),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    samples = []

    def sample_setup():
        samples.append(run_worker(args, setup_only=True)[0])

    setup, res = run_worker(args, between=None if args.trace else sample_setup)
    metrics = dict(res["metrics"])
    info = res["info"]
    if not args.trace:
        samples.append(setup)
        while len(samples) < SETUP_SAMPLES:
            sample_setup()
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        info["setup_samples"] = len(samples)
    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared) or any(
            metrics[k]["unit"] != declared[k]["unit"] for k in declared):
        raise SystemExit("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    metrics = {k: metrics[k] for k in declared}

    attempted, failed = res["attempted"], len(res["failed"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ({failed} of {attempted} "
          f"checks failed{': ' + ', '.join(res['failed'][:5]) if failed else ''})")
    print("info " + json.dumps({k: v for k, v in info.items() if k != "counters"}))
    env = environment(args)
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "result": result, "info": info, "env": env}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


# -- compare mode ------------------------------------------------------------------

def _load(path):
    groups = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            groups.setdefault((rec["workload"], name), []).append(m["value"])
    return groups


def _stats(values):
    """Median, and the distance between the quartiles as a share of it."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def compare(paths):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old = _load(paths[0])
    new = _load(paths[1]) if len(paths) > 1 else None
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    keys = [(w, n) for w in sorted({w for w, _ in old}) for n in order if (w, n) in old]
    for key in keys:
        workload, name = key
        m = meta.get(name, {})
        bound, better = m.get("bound"), m.get("better", "lower")
        med, spread = _stats(old[key])
        if new is None:
            steady = "" if bound is None else (
                "steady" if spread < bound / 3 else "NOT steady (spread >= bound/3)")
            print(f"{workload:11s} {name:34s} n={len(old[key]):2d} median {med:.6g} "
                  f"spread {spread:.4f} bound {bound} {steady}")
            continue
        if key not in new:
            print(f"{workload:11s} {name:34s} missing from {paths[1]}")
            continue
        med2, spread2 = _stats(new[key])
        delta = (med2 - med) / abs(med) if med else 0.0
        worse = delta if better == "lower" else -delta
        if bound is None:
            verdict = "no bound"
        elif _all_better(old[key], new[key], better):
            verdict = "better in every run"
        elif max(spread, spread2) > bound:
            verdict = "unresolved"
        else:
            verdict = "WORSE" if worse > bound else "within bound"
        print(f"{workload:11s} {name:34s} {med:.6g} -> {med2:.6g} ({delta:+.2%}) "
              f"spread {spread:.3f}/{spread2:.3f} bound {bound} {verdict}")
    return 0


def _all_better(old, new, better):
    if better == "lower":
        return max(new) < min(old)
    return min(new) > max(old)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run to a JSON lines file")
    ap.add_argument("--compare", nargs="+", metavar="FILE",
                    help="summarize one results file, or compare two")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes one or two files")
        return compare(args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "slowfast" / "__init__.py").is_file():
        print(f"no slowfast package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
