#!/usr/bin/env python3
"""Paired timings of single calls in two checkouts.

    python3 tools/ab_calls.py <base> <change> --workload W [--seed S] [--reps N]

One worker process per checkout imports that checkout's src/ and
bench/workloads.py, with BLAS on one thread and no bytecode written,
builds the seeded inputs of workload W and calls each once to warm up.
Then, N times over the inputs, the same input is called once in each
worker, alternately base first and change first (ABBA order), each call
timed in its worker by time.perf_counter.  Prints the median call time
of each checkout, the median over pairs of change/base and the share of
pairs in which the change was faster, then the quartiles of each
checkout's call times and of the paired change/base, so that a gain can
be set against the base's own spread.  Nothing in either checkout is
written.  Pairing the two calls on one input, back to back, cancels most
of the host's drift, which spreads whole benchmark runs of the same code
close to their bounds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # before the import of _checkout, so none is cached
from _checkout import BLAS_THREADS, use_checkout  # noqa: E402


def quartiles(xs: list[float]) -> str:
    """Lower quartile, median and upper quartile, inclusive method."""
    qs = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else list(xs) * 3
    return " ".join(f"{q:.6f}" for q in qs)


def worker(root: str, workload: str, seed: int) -> int:
    """Serve timed calls: read an input index per line, print its time."""
    if not use_checkout(root):
        return 2
    import workloads

    w = workloads.WORKLOADS[workload]
    cases = workloads.build_inputs(workload, seed)
    for case in [w.warmup()] + cases:
        w.call(case)
    print(len(cases), flush=True)
    for line in sys.stdin:
        case = cases[int(line)]
        t0 = time.perf_counter()
        w.call(case)
        print(time.perf_counter() - t0, flush=True)
    return 0


def start(root: Path, workload: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in BLAS_THREADS})
    cmd = [sys.executable, "-B", __file__, "--worker", str(root), workload, str(seed)]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)


def timed(proc: subprocess.Popen, index: int) -> float:
    proc.stdin.write(f"{index}\n")
    proc.stdin.flush()
    return float(proc.stdout.readline())


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return worker(argv[1], argv[2], int(argv[3]))
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=100)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    procs = [start(root, args.workload, args.seed) for root in (args.base, args.change)]
    try:
        counts = [proc.stdout.readline() for proc in procs]
        if not all(c.strip() for c in counts):
            print("a worker failed to start", file=sys.stderr)
            return 2
        n_inputs = int(counts[0])
        pairs = []
        for rep in range(args.reps):
            for index in range(n_inputs):  # each input alternates AB, BA, AB, ...
                order = (0, 1) if (rep + index) % 2 == 0 else (1, 0)
                times = {side: timed(procs[side], index) for side in order}
                pairs.append((times[0], times[1]))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    base, change = zip(*pairs)
    ratios = [c / b for b, c in pairs]
    print(f"workload {args.workload}  seed {args.seed}  pairs {len(pairs)}")
    print(f"base   median {statistics.median(base):.6f} s  ({args.base})")
    print(f"change median {statistics.median(change):.6f} s  ({args.change})")
    print(f"paired median change/base {statistics.median(ratios):.4f}")
    print(f"change faster in {sum(r < 1 for r in ratios) / len(ratios):.3f} of pairs")
    print(f"base   quartiles {quartiles(base)} s")
    print(f"change quartiles {quartiles(change)} s")
    print(f"paired change/base quartiles {quartiles(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
