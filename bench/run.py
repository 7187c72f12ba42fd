#!/usr/bin/env python3
"""Seeded benchmark for specfactor.

    python3 bench/run.py --workload ridged_1d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --out bench/BENCH_0.json

One workload runs in one fresh process as a closed loop: a single client
makes the next top-level call when the previous one has returned, in
whole passes over the workload's seeded inputs, as long as the next pass
is likely to end within --seconds (and at least MIN_PASSES passes).  BLAS
runs single-threaded.
Set-up (import plus a warm-up call) is timed in this process and in
SETUP_PROBES further fresh processes; the median is reported.

Timing metrics are scaled to the reference machine's speed: a fixed
kernel that calls nothing from the library (calibrate.py) is timed
before and after every call and after each set-up, and each time is
multiplied by the kernel's nominal time over its measured time.  The raw
times are kept in the --out file.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with tracing wrappers installed, and prints the
per-layer metrics with the tracing overhead.  Every output is checked
(see checks.py); the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The program is imported from
src/ of the checkout holding this script; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"  # determinism digests and span dumps
WORKLOADS = ("ridged_1d", "boundary_1d", "strict_2d", "corpus_small")
SETUP_PROBES = 4
SETUP_KERNEL_REPS = 15
MIN_PASSES = 3
TAIL_BEYOND = 10
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
    "oracle_digits": "digits",
    "outer_verified_frac": "fraction",
    "gap_digits": "digits",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  With too few samples, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("specfactor/**/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def timed_setup(name: str) -> tuple[float, str, float]:
    """Import the library and make the workload's warm-up call; then time
    the reference kernel.  Returns the set-up time scaled to the reference
    speed, the warm-up output's digest and the raw set-up time."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import specfactor

    if not Path(specfactor.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported specfactor from {specfactor.__file__}, not {SRC}")
    import checks
    import workloads

    w = workloads.WORKLOADS[name]
    out = w.call(w.warmup())
    setup_s = time.perf_counter() - t0
    import calibrate

    kernel = calibrate.measure(SETUP_KERNEL_REPS)
    return calibrate.scaled(setup_s, kernel, kernel), checks.digest(out), setup_s


def probe_setups(name: str) -> tuple[list[float], list[float], list[str]]:
    times, raw, digests = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(rec["setup_s"])
        raw.append(rec["raw_setup_s"])
        digests.append(rec["digest"])
    return times, raw, digests


def run_passes(w, cases, seconds: float, min_passes: int, wrap=None):
    """Closed loop over whole passes, with the reference kernel timed
    between calls.  A pass starts only if the previous one would still
    fit in the time left, unless fewer than min_passes have run.  Returns
    per-call durations, the same scaled to the reference speed, the
    outputs of the first pass and the digest lists of every pass."""
    import calibrate
    import checks

    durations, scaled, first, pass_digests = [], [], None, []
    calibrate.measure()  # warm-up
    before = calibrate.measure()
    start = last = time.perf_counter()
    while len(pass_digests) < min_passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        outs = []
        for case in cases:
            t0 = time.perf_counter()
            try:
                if wrap is None:
                    out = w.call(case)
                else:
                    with wrap():
                        out = w.call(case)
            except Exception as exc:  # a failed call is counted, not fatal
                out = exc
            durations.append(time.perf_counter() - t0)
            outs.append(out)
            after = calibrate.measure()
            scaled.append(calibrate.scaled(durations[-1], before, after))
            before = after
        pass_digests.append([f"raised {type(o).__name__}: {o}" if isinstance(o, Exception)
                             else checks.digest(o) for o in outs])
        if first is None:
            first = outs
    return durations, scaled, first, pass_digests


def determinism_problems(name, seed, pass_digests, warm) -> list[str]:
    problems = []
    if len(set(warm)) != 1:
        problems.append("warm-up outputs differ between fresh processes")
    for i, digests in enumerate(pass_digests[1:], start=2):
        if digests != pass_digests[0]:
            problems.append(f"pass {i} outputs differ from pass 1")
    path = STATE / f"digests-{name}-seed{seed}-{code_hash()[:16]}.json"
    if path.exists():
        if json.loads(path.read_text()) != pass_digests[0]:
            problems.append(f"outputs differ from an earlier run with seed {seed}")
    else:
        STATE.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(pass_digests[0]))
        os.replace(tmp, path)
    return problems


def check_outputs(cases, first):
    import checks

    rows = []
    for case, out in zip(cases, first):
        if isinstance(out, Exception):
            rows.append((case, out, None))
        else:
            rows.append((case, out, checks.check(case, out)))
    return rows


def quality_metrics(rows) -> dict:
    import checks

    ok = [(out, chk) for _, out, chk in rows if chk is not None]
    oracles = [chk.oracle for _, chk in ok if chk.oracle is not None]
    if not ok or not oracles:
        raise BenchError("no call produced an output with a residual and an oracle check")
    return {
        "residual_digits": checks.digits(max(chk.rel_residual for _, chk in ok)),
        "oracle_digits": checks.digits(max(oracles)),
        "outer_verified_frac": sum(out.verdict == "verified" for out, _ in ok) / len(rows),
        "gap_digits": checks.digits(max(out.rel_gap for out, _ in ok)),
    }


def print_cases(rows, durations, n_cases):
    print(f"{'input':44s} {'median_s':>9s} {'rel_resid':>10s} {'rel_gap':>10s} "
          f"{'oracle':>10s} verdict")
    for i, (case, out, chk) in enumerate(rows):
        med = statistics.median(durations[i::n_cases])
        if chk is None:
            print(f"{case.label:44s} {med:9.4f} raised {type(out).__name__}: {out}")
            continue
        orc = "-" if chk.oracle is None else f"{chk.oracle:.2e}"
        notes = "; ".join(chk.errors + chk.shortfalls + chk.fatal)
        print(f"{case.label:44s} {med:9.4f} {chk.rel_residual:10.2e} {out.rel_gap:10.2e} "
              f"{orc:>10s} {out.verdict}{'  [' + notes + ']' if notes else ''}")


def run_workload(args) -> tuple[dict, dict]:
    name = args.workload
    probe_times, probe_raw, warm = probe_setups(name)
    own_setup, own_digest, own_raw = timed_setup(name)
    warm.append(own_digest)
    setup_scaled, setup_raw = probe_times + [own_setup], probe_raw + [own_raw]
    import tracing
    import workloads

    tracing.assert_untraced()
    t0 = time.perf_counter()
    cases = workloads.build_inputs(name, args.seed)
    generate_s = time.perf_counter() - t0
    w = workloads.WORKLOADS[name]
    detail = {"workload": name, "seed": args.seed, "trace": args.trace,
              "inputs": [c.label for c in cases]}

    if args.trace:
        _, durations, first, digests = run_passes(w, cases, args.seconds / 2, 1)
        tracing.assert_untraced()
        rec = tracing.Recorder()
        with tracing.installed(rec):
            _, t_dur, _, t_digests = run_passes(
                w, cases, args.seconds / 2, 1, wrap=lambda: rec.span("bench.call"))
        tracing.assert_untraced()
        rec.dump(STATE / f"spans-{name}-seed{args.seed}.json")
        passes, t_passes = len(digests), len(t_digests)
        digests += t_digests
        metrics = tracing.layer_values(rec, t_passes)
        metrics["corpus.generate_s"] = generate_s
        overhead = (sum(t_dur) / t_passes) / (sum(durations) / passes) - 1.0
        metrics["trace.overhead_pct"] = 100.0 * overhead
        units = {k: tracing.UNITS[k.rsplit(".", 1)[1]] for k in tracing.quantity_names()}
        units.update({"corpus.generate_s": "s", "trace.overhead_pct": "%"})
        detail.update(untraced_passes=passes, traced_passes=t_passes,
                      spans=len(rec.spans))
        attempted = len(durations) + len(t_dur)
    else:
        raw, durations, first, digests = run_passes(w, cases, args.seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracing.assert_untraced()
        tail, pct, beyond = tail_stat(durations)
        metrics = {
            "solve_s_p50": statistics.median(durations),
            "solve_s_tail": tail,
            "throughput_per_s": len(durations) / sum(durations),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(E2E_UNITS)
        detail.update(passes=len(digests), durations=durations, raw_durations=raw,
                      raw_solve_s_p50=statistics.median(raw), tail_percentile=pct,
                      tail_samples=len(durations), tail_samples_beyond=beyond,
                      setup_samples=setup_scaled, raw_setup_samples=setup_raw)
        attempted = len(durations)

    rows = check_outputs(cases, first)
    print_cases(rows, durations, len(cases))
    fatal = determinism_problems(name, args.seed, digests, warm)
    fatal += [f"{case.label}: {m}" for case, _, chk in rows if chk for m in chk.fatal]
    failing = sum(chk is None or bool(chk.errors) for _, _, chk in rows)
    degraded = sum(chk is None or bool(chk.errors or chk.shortfalls) for _, _, chk in rows)
    if not args.trace:
        metrics.update(quality_metrics(rows))
    detail.update(failed_frac=degraded / len(rows), fatal=fatal,
                  generate_s=generate_s, code_hash=code_hash()[:16])
    result = {
        "correct": not fatal and failing == 0,
        "attempted": attempted,
        "failed": failing * len(digests),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, detail


def print_summary(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']}: "
          f"{result['attempted']} calls, {result['failed']} failed, "
          f"failed_frac {detail['failed_frac']:.3f} (raised, not converged, "
          f"or relative residual above 1e-8)")
    if "tail_percentile" in detail:
        print(f"solve_s_tail is p{detail['tail_percentile']:.1f}: "
              f"{detail['tail_samples_beyond']} of {detail['tail_samples']} samples beyond it")
        print(f"unscaled: solve_s_p50 {detail['raw_solve_s_p50']:.6g} s, "
              f"setup_s {statistics.median(detail['raw_setup_samples']):.6g} s")
    else:
        print(f"traced {detail['traced_passes']} passes after {detail['untraced_passes']} "
              f"untraced; {detail['spans']} spans")
    for key, m in result["metrics"].items():
        print(f"  {key:48s} {m['value']:14.6g} {m['unit']}")
    for msg in detail["fatal"]:
        print(f"FATAL: {msg}")


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    for name in WORKLOADS:
        STATE.mkdir(exist_ok=True)
        out_path = STATE / f"detail-{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_path)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900,
                              cwd=ROOT, check=False)
        print(proc.stdout, end="")
        if proc.returncode not in (0, 1):
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
        details[name] = json.loads(out_path.read_text())
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine(), "seconds": args.seconds, "workloads": details,
             "result": merged}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the detailed result as JSON to this file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "specfactor" / "__init__.py").is_file():
        print(f"error: no specfactor sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            setup_s, digest, raw = timed_setup(args.workload)
            print(json.dumps({"setup_s": setup_s, "digest": digest, "raw_setup_s": raw}))
            return 0
        result, detail = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail.update(machine=machine(), result=result)
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print_summary(result, detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
