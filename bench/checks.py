# Output checks made by the benchmark with plain numpy, independent of
# the library's own verification: residuals on grids the library does not
# use, the P(0) gauge, degree bounds, and the scalar root-pairing oracle
# (directly for scalar inputs, through det P = outer factor of det Q for
# matrix inputs).  Also the digest that the determinism guard compares.

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from specfactor import factor1d
from specfactor.poly import MatrixLaurentPoly1, MatrixLaurentPoly2

RESIDUAL_TOL = 1e-8  # relative; the library's default residual tolerance
GRID_1D = 600  # points on the circle, offset by half a step
GRID_2D = 40  # points per variable, offset by half a step
AGREE_FLOOR = 1e-12  # relative residuals below this count as equal
AGREE_FACTOR = 10.0  # allowed ratio between library and benchmark residuals
DIGITS_CAP = 1e-17  # a difference of 0 reads as 17 digits


def digits(x: float) -> float:
    return -math.log10(max(x, DIGITS_CAP))


def _offset_circle(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)


def _eval_laurent1(q: MatrixLaurentPoly1, zs) -> np.ndarray:
    return sum(np.multiply.outer(zs ** k, c) for k, c in q.coeffs.items())


def _eval_analytic1(coeffs, zs) -> np.ndarray:
    return sum(np.multiply.outer(zs ** k, c) for k, c in enumerate(coeffs))


def _eval2(coeffs: dict, zs) -> np.ndarray:
    return sum(np.multiply.outer(np.multiply.outer(zs ** j, zs ** k), c)
               for (j, k), c in coeffs.items())


def residual_1d(q: MatrixLaurentPoly1, p) -> float:
    zs = _offset_circle(GRID_1D)
    pv = _eval_analytic1(p.coeffs, zs)
    diff = _eval_laurent1(q, zs) - np.conj(np.swapaxes(pv, -1, -2)) @ pv
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(-2, -1))))


def residual_2d(q: MatrixLaurentPoly2, factors) -> float:
    zs = _offset_circle(GRID_2D)
    diff = _eval2(q.coeffs, zs)
    for f in factors:
        if not f.coeffs:
            continue
        fv = _eval2(f.coeffs, zs)
        diff = diff - np.conj(np.swapaxes(fv, -1, -2)) @ fv
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(-2, -1))))


def _det_laurent(q: MatrixLaurentPoly1) -> MatrixLaurentPoly1:
    """Scalar Laurent polynomial det Q(z), by sampling and a DFT."""
    deg = q.size * q.degree
    n = 2 * deg + 2
    vals = np.linalg.det(_eval_laurent1(q, np.exp(2j * np.pi * np.arange(n) / n)))
    c = np.fft.fft(vals) / n
    return MatrixLaurentPoly1(1, {k: np.array([[c[k % n]]]) for k in range(-deg, deg + 1)})


def _det_analytic(p) -> np.ndarray:
    deg = p.rows * p.degree
    n = deg + 1
    vals = np.linalg.det(_eval_analytic1(p.coeffs, np.exp(2j * np.pi * np.arange(n) / n)))
    return np.fft.fft(vals) / n


def _coeff_diff(a: np.ndarray, b: np.ndarray) -> float:
    n = max(len(a), len(b))
    a = np.pad(a, (0, n - len(a)))
    b = np.pad(b, (0, n - len(b)))
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _scalar_coeffs(p) -> np.ndarray:
    return np.array([c[0, 0] for c in p.coeffs])


def oracle_diff(q, factors, oracle=None) -> float | None:
    """Relative coefficient difference between the engine's factor and
    the root-pairing factor, or None where no scalar oracle applies.

    Both sides carry the unique gauge (value at 0 real and >= 0), so they
    are compared coefficient by coefficient without a phase fit.
    """
    if isinstance(q, MatrixLaurentPoly1):
        p = factors[0]
        if q.size == 1:
            ref = oracle if oracle is not None else factor1d.scalar_root_factor(q)
            return _coeff_diff(_scalar_coeffs(p), _scalar_coeffs(ref))
        ref = factor1d.scalar_root_factor(_det_laurent(q))
        return _coeff_diff(_det_analytic(p), _scalar_coeffs(ref))
    if q.size == 1 and q.deg2 == 0 and len(factors) == 1:
        q1 = MatrixLaurentPoly1(1, {j: c for (j, _), c in q.coeffs.items()})
        f = factors[0]
        mine = np.array([f.coeff(j, 0)[0, 0] for j in range(f.deg1 + 1)])
        return _coeff_diff(mine, _scalar_coeffs(factor1d.scalar_root_factor(q1)))
    return None


@dataclass
class Checked:
    rel_residual: float  # benchmark's own recomputation
    lib_rel_residual: float
    oracle: float | None
    errors: list = field(default_factory=list)  # wrong output: a failed call
    shortfalls: list = field(default_factory=list)  # degraded: in failed_frac only
    fatal: list = field(default_factory=list)  # make the run exit nonzero


def check(case, out) -> Checked:
    q = case.q
    scale = max(q.scale, 1e-300)
    two_var = isinstance(q, MatrixLaurentPoly2)
    resid = (residual_2d(q, out.factors) if two_var else residual_1d(q, out.factors[0])) / scale
    lib = out.report["residual_sup"] / scale
    try:
        oracle = oracle_diff(q, out.factors, out.oracle)
    except ValueError as exc:  # the oracle itself cannot pair the roots
        oracle = None
        print(f"note: {case.label}: no oracle ({exc})")
    res = Checked(resid, lib, oracle)
    ratio = (resid + AGREE_FLOOR) / (lib + AGREE_FLOOR)
    if not 1.0 / AGREE_FACTOR <= ratio <= AGREE_FACTOR:
        res.fatal.append(f"residual disagrees: library {lib:.3e}, benchmark {resid:.3e}")
    if two_var:
        if len(out.factors) > out.lift_n + 1:
            res.errors.append(f"{len(out.factors)} factors for N = {out.lift_n}")
        if any(f.deg1 > q.deg1 for f in out.factors):
            res.errors.append("a factor's first-variable degree exceeds that of Q")
    else:
        p = out.factors[0]
        if p.degree > q.degree:
            res.errors.append(f"factor degree {p.degree} exceeds m = {q.degree}")
        p0 = p.coeffs[0]
        tol = 1e-10 * max(np.max(np.abs(p0)), 1e-300)
        if np.max(np.abs(p0 - p0.conj().T)) > tol:
            res.errors.append("P(0) is not Hermitian")
        elif np.linalg.eigvalsh((p0 + p0.conj().T) / 2)[0] < -tol:
            res.errors.append("P(0) is not positive semidefinite")
    if out.screen_min is not None and out.screen_min < -1e-9 * scale:
        res.errors.append(f"grid screen rejects a nonnegative input ({out.screen_min:.3e})")
    if not out.converged:
        res.shortfalls.append("did not converge")
    if max(resid, lib) > RESIDUAL_TOL:
        res.shortfalls.append(f"relative residual {max(resid, lib):.3e} above {RESIDUAL_TOL:g}")
    return res


def digest(out) -> str:
    """Hash of the call's default report JSON and every output coefficient."""
    h = hashlib.sha256(json.dumps(out.report, sort_keys=True).encode())
    polys = list(out.factors) + ([out.oracle] if out.oracle is not None else [])
    for p in polys:
        items = enumerate(p.coeffs) if isinstance(p.coeffs, list) else sorted(p.coeffs.items())
        for key, c in items:
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(c).tobytes())
    if out.screen_min is not None:
        h.update(repr(out.screen_min).encode())
    return h.hexdigest()
