# Command-line interface.  Reports are JSON on stdout, human-readable
# summaries on stderr.  Exit codes: 0 success, 1 mathematical rejection,
# 2 input error, 3 convergence failure.

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import corpus, factor1d, factor2d, verify
from .factor1d import (
    FactorNumericalError,
    NotNonnegativeError,
    SchurConvergenceError,
    UnpairedRootError,
)
from .factor2d import NotStrictlyPositiveError, StrictificationError
from .poly import (
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    PolyFormatError,
    eval1,
    eval2,
    load_poly,
    poly_to_json,
    save_poly,
    toeplitz_psd_check,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3


def _finite(obj):
    # Strict JSON has no Infinity or NaN: non-finite floats become null.
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(report: dict, summary: str, degraded_reason: str = "") -> None:
    print(json.dumps(_finite(report), indent=2, sort_keys=True, allow_nan=False))
    print(summary, file=sys.stderr)
    if degraded_reason:
        print(f"degraded: {degraded_reason}", file=sys.stderr)


def _parse_grid(text: str) -> verify.GridSpec:
    parts = text.split(",")
    if len(parts) == 1:
        return verify.GridSpec(int(parts[0]))
    if len(parts) == 2:
        return verify.GridSpec(int(parts[0]), int(parts[1]))
    raise ValueError(f"grid must be g or g1,g2, got {text!r}")


def _point_json(point) -> list:
    return [[z.real, z.imag] for z in point]


def cmd_check(args) -> int:
    q = load_poly(args.file, kind="laurent")
    if isinstance(q, MatrixLaurentPoly1) and args.grid.g2 is not None:
        raise PolyFormatError("one-variable polynomial needs --grid g")
    gm = verify.grid_min_eig(q, args.grid)
    scale = max(q.scale, 1e-300)
    grid_ok = gm.min_eig >= -args.tol * scale
    report = {
        "command": "check",
        "min_eig": gm.min_eig,
        "witness": _point_json(gm.point),
        "grid_ok": grid_ok,
        "scale": q.scale,
    }
    ok = grid_ok
    if isinstance(q, MatrixLaurentPoly1):
        tp = toeplitz_psd_check(q, q.degree + 1, tol=args.tol)
        report["toeplitz_psd"] = {
            "ok": tp.ok,
            "min_eig": tp.min_eig,
            "N": tp.n_blocks,
        }
        ok = ok and tp.ok
    report["ok"] = ok
    _emit(report, f"check: min eig {gm.min_eig:.6e} at {gm.point} -> {'OK' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_factor(args) -> int:
    q = load_poly(args.file, kind="laurent")
    if not isinstance(q, MatrixLaurentPoly1):
        raise PolyFormatError("factor expects a one-variable Laurent polynomial")
    phat, rep = factor1d.factor(
        q,
        residual_tol=args.tol,
        n_max=args.max_trunc,
        grid=verify.GridSpec(args.grid),
    )
    out = args.out or (args.file + ".factor.json")
    save_poly(out, phat)
    scale = max(q.scale, 1e-300)
    ok = rep.residual_sup <= args.tol * scale
    report = {"command": "factor", "out": out, **rep.to_json()}
    report["ok"] = ok
    _emit(
        report,
        f"factor: residual {rep.residual_sup:.3e} (tol {args.tol * scale:.3e}), "
        f"outer {rep.outer_verdict}, N_used {rep.n_used} -> {out}",
        rep.degraded_reason,
    )
    return EXIT_OK if ok else EXIT_CONVERGENCE


def cmd_factor2d(args) -> int:
    q = load_poly(args.file, kind="laurent")
    if not isinstance(q, MatrixLaurentPoly2):
        raise PolyFormatError("factor2d expects a two-variable Laurent polynomial")
    g2 = args.grid.g2 if args.grid.g2 is not None else args.grid.g1
    factors, rep, plan = factor2d.factor_strict(
        q,
        delta=args.delta,
        margin=args.margin,
        delta_grid=verify.GridSpec(args.grid.g1, g2),
        grid=verify.GridSpec(min(args.grid.g1, 6), min(g2, 6)),
        n_max=args.max_trunc,
    )
    out = args.out or (args.file + ".factors.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump([poly_to_json(f) for f in factors], fh, indent=2, sort_keys=True)
        fh.write("\n")
    scale = max(q.scale, 1e-300)
    ok = rep.residual_sup <= args.tol * scale
    report = {
        "command": "factor2d",
        "out": out,
        "plan": plan.to_json(),
        "factor_count": len(factors),
        **rep.to_json(),
    }
    report["ok"] = ok
    _emit(
        report,
        f"factor2d: {len(factors)} factors, plan N = {plan.n}, residual "
        f"{rep.residual_sup:.3e} -> {out}",
        rep.degraded_reason,
    )
    return EXIT_OK if ok else EXIT_CONVERGENCE


def cmd_eval(args) -> int:
    p = load_poly(args.file)
    angles = [float(t) for t in args.point.split(",")]
    points = [complex(np.exp(2j * np.pi * t)) for t in angles]
    if isinstance(p, (MatrixLaurentPoly2, MatrixAnalyticPoly2)):
        if len(points) != 2:
            raise PolyFormatError("two-variable polynomial needs --point t1,t2")
        val = eval2(p, points[0], points[1])
    else:
        if len(points) != 1:
            raise PolyFormatError("one-variable polynomial needs --point t1")
        val = eval1(p, points[0])
    report = {
        "command": "eval",
        "point": _point_json(points),
        "value": [[[float(x.real), float(x.imag)] for x in row] for row in val],
    }
    _emit(report, f"eval at {points}: done")
    return EXIT_OK


def cmd_oracle(args) -> int:
    q = load_poly(args.file, kind="laurent")
    if not isinstance(q, MatrixLaurentPoly1) or q.size != 1:
        raise PolyFormatError("oracle is scalar-only (one variable, size 1)")
    p_root = factor1d.normalize_gauge(factor1d.scalar_root_factor(q))
    p_schur, rep = factor1d.factor(q, n_max=args.max_trunc)
    p_schur = factor1d.normalize_gauge(p_schur)
    top = max(p_root.degree, p_schur.degree)
    diff = max(
        float(np.max(np.abs(p_root.coeff(k) - p_schur.coeff(k)))) for k in range(top + 1)
    )
    scale = max(q.scale, 1e-300)
    ok = diff <= args.tol * scale
    report = {
        "command": "oracle",
        "max_coeff_diff": diff,
        "residual_sup": rep.residual_sup,
        "ok": ok,
        "scale": q.scale,
    }
    _emit(report, f"oracle: coefficientwise difference {diff:.3e} -> {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_roundtrip(args) -> int:
    rng = corpus.make_rng(args.seed)
    results = []
    worst = 0.0
    failures = 0
    convergence_failure = False
    for i in range(args.count):
        q, _ = corpus.ridged_instance(rng, args.size, args.degree)
        scale = max(q.scale, 1e-300)
        entry = {"instance": i}
        try:
            _, rep = factor1d.factor(q, n_max=args.max_trunc)
            entry["residual_sup"] = rep.residual_sup
            entry["converged"] = rep.converged
            entry["ok"] = rep.converged and rep.residual_sup <= args.tol * scale
            worst = max(worst, rep.residual_sup / scale)
            if not rep.converged:
                convergence_failure = True
                entry["gap"] = rep.gap
            if not entry["ok"]:
                failures += 1
        except (NotNonnegativeError, FactorNumericalError) as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
            failures += 1
        results.append(entry)
    report = {
        "command": "roundtrip",
        "seed": args.seed,
        "count": args.count,
        "size": args.size,
        "degree": args.degree,
        "max_relative_residual": worst,
        "failures": failures,
        "instances": results,
    }
    _emit(
        report,
        f"roundtrip: {args.count - failures}/{args.count} ok, "
        f"max relative residual {worst:.3e}",
    )
    if failures == 0:
        return EXIT_OK
    return EXIT_CONVERGENCE if convergence_failure else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfactor",
        description="Spectral and sum-of-squares factorization of matrix "
        "trigonometric polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--tol": dict(type=float, default=1e-8, help="relative tolerance"),
        "--grid": dict(
            type=_parse_grid,
            default=verify.GridSpec(9),
            help="log2 grid sizes g or g1,g2 (default 9); for factor2d, the finest "
            "grid the delta bound may refine to",
        ),
        "--max-trunc": dict(type=int, default=4096, help="Schur truncation block cap"),
        "--out": dict(default=None, help="output path for factor files"),
    }

    def command(name, func, help, *flags, with_file=True):
        p = sub.add_parser(name, help=help)
        if with_file:
            p.add_argument("file", help="polynomial JSON file")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, "positivity checks on a polynomial file", "--tol", "--grid")

    p = command(
        "factor", cmd_factor, "one-variable spectral factorization",
        "--tol", "--max-trunc", "--out",
    )
    p.add_argument("--grid", type=int, default=9, help="log2 grid size g (default 9)")

    p = command(
        "factor2d", cmd_factor2d, "two-variable sum-of-squares factorization",
        "--tol", "--grid", "--max-trunc", "--out",
    )
    p.add_argument("--delta", type=float, default=None, help="torus lower bound override")
    p.add_argument(
        "--margin",
        type=float,
        default=factor2d.DEFAULT_MARGIN,
        help="safety fraction of delta reserved against estimation error",
    )

    p = command("eval", cmd_eval, "evaluate a polynomial file at a point")
    p.add_argument(
        "--point",
        required=True,
        help="angles as fractions of a full turn: t1 or t1,t2",
    )

    command(
        "oracle", cmd_oracle, "compare Schur factorization with root pairing",
        "--tol", "--max-trunc",
    )

    p = command(
        "roundtrip", cmd_roundtrip, "seeded random factor-verify corpus",
        "--tol", "--max-trunc", with_file=False,
    )
    p.add_argument("--seed", type=int, default=0, help="PCG64 seed")
    p.add_argument("--count", type=int, default=10, help="number of instances")
    p.add_argument("--size", type=int, default=2, help="coefficient size r")
    p.add_argument("--degree", type=int, default=3, help="polynomial degree m")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the input-error code.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (NotNonnegativeError, NotStrictlyPositiveError, UnpairedRootError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (SchurConvergenceError, StrictificationError, FactorNumericalError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (PolyFormatError, FileNotFoundError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
