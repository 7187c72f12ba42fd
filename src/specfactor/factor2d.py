# Two-variable sum-of-squares pipeline.  The second variable is absorbed
# into enlarged block coefficients: the Cesaro-weighted polynomial Q^(N),
# Q's dense box times the column weights, is exactly the one-variable
# symbol of a compressed block Toeplitz operator, read off that box by
# one poly.toeplitz_blocks gather, so one-variable factorization (and its
# memory check) applies; splitting the factor's block columns back out
# gives at most N+1 analytic factors, views of one stacked copy of the
# lifted coefficients.  Strictly positive polynomials are factored exactly
# by pre-applying the inverse weights, at the first N of a doubling chain
# whose lift factors; the N whose reweighting error stays below the
# positivity margin certifies that one exists.

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import factor1d, linalg, verify
from .factor1d import FactorNumericalError, FactorReport, NotNonnegativeError
from .poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    toeplitz_blocks,
)

DEFAULT_MARGIN = 1.0 / 3.0
TRUNCATION_CAP = 100_000


class NotStrictlyPositiveError(ValueError):
    """Estimated torus lower bound is not positive."""

    def __init__(self, message, delta_est=None):
        super().__init__(message)
        self.delta_est = delta_est


class StrictificationError(RuntimeError):
    """The certified lift of the reweighted polynomial failed its Toeplitz
    screen or a Schur witness: it is not nonnegative."""


@dataclass
class LiftPlan:
    """Truncation degree in the second variable with its certificate."""

    n: int
    r: int
    delta_est: float
    bound_s: float
    margin: float

    def to_json(self) -> dict:
        return {
            "N": self.n,
            "r": self.r,
            "delta_est": self.delta_est,
            "bound_S": self.bound_s,
            "margin": self.margin,
        }


def _reweight(q: MatrixLaurentPoly2, n: int, inverse: bool) -> MatrixLaurentPoly2:
    if n < q.deg2:
        raise ValueError(f"need N >= m2 = {q.deg2}, got N = {n}")
    # Column k of the exact box scales by one real weight, so it stays exact.
    w = ((n + 1 - np.abs(np.arange(-q.deg2, q.deg2 + 1))) / (n + 1))[:, None, None]
    return MatrixLaurentPoly2._from_box(q.dense / w if inverse else q.dense * w)


def cesaro_smooth(q: MatrixLaurentPoly2, n: int) -> MatrixLaurentPoly2:
    """Scale coefficient (j, k) by (N+1-|k|)/(N+1); degrees unchanged."""
    return _reweight(q, n, inverse=False)


def inverse_cesaro(q: MatrixLaurentPoly2, n: int) -> MatrixLaurentPoly2:
    """Scale coefficient (j, k) by (N+1)/(N+1-|k|); undoes cesaro_smooth."""
    return _reweight(q, n, inverse=True)


def _offset_norms(q: MatrixLaurentPoly2) -> list[tuple[int, float]]:
    """(|k|, operator norm of Q_jk) for every nonzero Q_jk with k != 0, in
    sorted order, from one batched LAPACK SVD over those blocks of q.dense."""
    js, ks = np.nonzero(q.dense.any(axis=(2, 3)) & (np.arange(-q.deg2, q.deg2 + 1) != 0))
    norms = np.linalg.norm(q.dense[js, ks], 2, axis=(-2, -1))
    return list(zip(np.abs(ks - q.deg2).tolist(), norms.tolist()))


def remainder_bound(
    q: MatrixLaurentPoly2, n: int, norms: list[tuple[int, float]] | None = None
) -> float:
    """Certified sup-norm bound for the inverse-Cesaro reweighting error.

    Triangle inequality over coefficients: sum of |k|/(N+1-|k|) times the
    operator norm of Q_jk.  Valid on the whole torus, not just a grid.
    norms, when given, is _offset_norms(q), so repeated calls for several
    N compute each operator norm once.
    """
    if n < q.deg2:
        raise ValueError(f"need N >= m2 = {q.deg2}, got N = {n}")
    total = 0.0
    for k, norm in _offset_norms(q) if norms is None else norms:
        total += k / (n + 1 - k) * norm
    return total


def choose_truncation(
    q: MatrixLaurentPoly2, delta_est: float, margin: float = DEFAULT_MARGIN
) -> LiftPlan:
    """Smallest N >= m2 whose reweighting error bound is strictly below
    delta_est * (1 - margin).  With s = sum |k| ||Q_jk||, the bound at N
    lies in [s/(N+1), s/(N+1-m2)], so that N is one of floor(s/c) ...
    floor(s/c) + m2 for the threshold c of the test, or m2: N scans the
    m2 + 3 from one below (never past TRUNCATION_CAP) upward."""
    if not 0 < delta_est < np.inf:
        raise ValueError(f"delta must be a finite positive number, got {delta_est}")
    if not 0 < margin < 1:
        raise ValueError(f"margin must lie in (0, 1), got {margin}")
    budget = delta_est * (1.0 - margin)
    # Strict inequality with an ulp-level guard so rational ties
    # (mathematically not-strictly-below) push N up, never down.
    c = budget * (1.0 - 1e-12)
    norms = _offset_norms(q)
    s = sum(k * norm for k, norm in norms)
    start = max(q.deg2, int(s / c) - 1) if s < c * TRUNCATION_CAP else TRUNCATION_CAP
    for n in range(start, min(start + q.deg2 + 3, TRUNCATION_CAP + 1)):
        if (bound := remainder_bound(q, n, norms)) < c:
            return LiftPlan(n=n, r=q.size, delta_est=delta_est, bound_s=bound, margin=margin)
    raise ValueError(f"degenerate delta: no truncation below {TRUNCATION_CAP} satisfies the "
                     f"bound {budget:.3e}")


def lift_to_block(q: MatrixLaurentPoly2, n: int) -> MatrixLaurentPoly1:
    """One-variable Laurent polynomial whose coefficients are normalized
    (N+1) x (N+1) block compressions in the second variable.

    Block (p, s) of coefficient j is Q_{j, p-s} / (N+1).
    """
    if n < q.deg2:
        raise ValueError(f"need N >= m2 = {q.deg2}, got N = {n}")
    # Row j of the box between zero slabs is a 1-D stack: one gather lifts every row.
    stack = np.zeros((len(q.dense), 2 * q.deg2 + 3) + q.dense.shape[2:], dtype=complex)
    stack[:, 1:-1] = q.dense / (n + 1)
    idx = np.arange(n + 1)
    return MatrixLaurentPoly1._from_box(toeplitz_blocks(stack, idx, idx))


def unlift_factor(phi: MatrixAnalyticPoly1, r: int, n: int) -> list[MatrixAnalyticPoly2]:
    """Split a lifted analytic factor back into N+1 two-variable factors.

    The block column at position c from the left of each coefficient
    carries second-variable exponent N-c; row block l across all
    coefficients assembles the l-th factor.  phi.dense is copied once
    with its block columns reversed, so one reshape indexes the blocks
    as [l, j, k]; every factor is a view of that one buffer, its
    nonzero blocks listed in index order, j then k.
    """
    big = r * (n + 1)
    if phi.rows != big or phi.cols != big:
        raise ValueError(
            f"lifted factor has shape ({phi.rows},{phi.cols}), expected ({big},{big})"
        )
    flipped = phi.dense.reshape(-1, big, n + 1, r)[:, :, ::-1].copy()
    blocks = flipped.reshape(-1, n + 1, r, n + 1, r).transpose(1, 0, 3, 2, 4)
    return MatrixAnalyticPoly2.from_stack(blocks)


def _factor_lifted(
    q: MatrixLaurentPoly2,
    n: int,
    target: MatrixLaurentPoly2,
    grid: verify.GridSpec,
    n_max: int,
    **tolerances,
) -> tuple[list[MatrixAnalyticPoly2], FactorReport]:
    # Refuse a lift over the memory budget before building it, by the check
    # schur_limit makes, and factor the lift with factor1d.factor.  The
    # operator Fejer-Riesz theorem factors the lift exactly when the lift is
    # nonnegative, so its own Toeplitz screen and Schur witnesses decide,
    # not a grid screen of q; constructed and outer-checked there, it is
    # verified once, by the 2-D residual, then held to factor1d.BACKWARD_TOL.
    size = q.size * (n + 1)
    factor1d.refuse_over_budget(size, q.deg1, q.deg1, n_max, f"lift of size {size} not built")
    psi = lift_to_block(q, n)
    phi, rep1d = factor1d.factor(psi, n_max, verify.GridSpec(grid.g1), _skip_residual=True)
    factors = unlift_factor(phi, q.size, n)
    report = replace(
        rep1d,
        residual_sup=verify.residual(target, factors, grid),
        tolerances=dict(rep1d.tolerances, lift_n=n, **tolerances),
    )
    return factors, factor1d.backward_checked(report, max(target.scale, 1e-300))


def factor_cesaro(
    q: MatrixLaurentPoly2,
    n: int,
    grid: verify.GridSpec | None = None,
    n_max: int = factor1d.DEFAULT_N_MAX,
) -> tuple[list[MatrixAnalyticPoly2], FactorReport]:
    """Sum-of-squares factorization of the Cesaro-smoothed polynomial Q^(N).

    Produces at most N+1 factors of first-variable degree <= m1; the
    reported residual is against Q^(N) on the verification grid.
    """
    grid = grid or verify.GridSpec(6, 6)
    return _factor_lifted(q, n, cesaro_smooth(q, n), grid, n_max)


def estimate_delta(q: MatrixLaurentPoly2, grid: verify.GridSpec) -> float:
    """Certified lower bound for the smallest eigenvalue of Q on the torus.

    Sampling inequality (Ehlich-Zeller): a real trigonometric polynomial t
    of degree n satisfies sup |t| <= sec(pi n / M) max |t| over M > 2n
    equispaced points.  Applied once per variable to t = v*(Q - cI)v for
    every unit vector v, with lo, hi the smallest and largest eigenvalues
    of Q on an M1 x M2 roots-of-unity grid and c = (hi + lo) / 2, it gives

        lambda_min(Q) >= c - sec(pi m1/M1) sec(pi m2/M2) (hi - lo) / 2

    everywhere on the torus, not just on the grid.  Each axis starts at
    the smallest power of two >= max(64, 4 m_i); the grid doubles while
    the guard lo - bound exceeds lo / 10, never past grid, which is the
    finest grid the bound may use.  A grid minimum lo <= 0 already proves
    Q is not strictly positive and is returned as it is.  Where hi passes
    the largest double, the bound is that of Q s, s = pow2_scale(q.dense),
    divided by s.
    """
    degs = (q.deg1, q.deg2)
    top = (grid.g1, grid.axis2)
    for m, g in zip(degs, top):
        if 1 << g <= 2 * m:
            raise ValueError(
                f"delta grid of {1 << g} points is too coarse for degree {m}: "
                f"the sampling bound needs more than {2 * m}"
            )
    logs = [min(max(6, (4 * m - 1).bit_length()), g) for m, g in zip(degs, top)]
    while True:
        gm = verify.grid_min_eig(q, verify.GridSpec(*logs))
        lo, hi = gm.min_eig, gm.max_eig
        if lo <= 0:
            return lo
        if hi == np.inf:  # Q passes the largest double: bound Q s, s a power of two, exactly
            s = linalg.pow2_scale(q.dense)
            return estimate_delta(MatrixLaurentPoly2._from_box(q.dense * s), grid) / s
        sec = 1.0
        for m, g in zip(degs, logs):
            sec /= np.cos(np.pi * m / (1 << g))
        bound = hi / 2 + lo / 2 - sec * (hi / 2 - lo / 2)  # halved first: no overflow
        if lo - bound <= lo / 10 or logs == list(top):
            return float(bound)
        logs = [min(g + 1, t) for g, t in zip(logs, top)]


def factor_strict(
    q: MatrixLaurentPoly2,
    delta: float | None = None,
    margin: float = DEFAULT_MARGIN,
    delta_grid: verify.GridSpec | None = None,
    grid: verify.GridSpec | None = None,
    n_max: int = factor1d.DEFAULT_N_MAX,
) -> tuple[list[MatrixAnalyticPoly2], FactorReport, LiftPlan]:
    """Exact sum-of-squares factorization of a strictly positive polynomial.

    Applies the Cesaro pipeline to the inverse-weighted polynomial so the
    weights cancel and the factors target Q itself, at any N >= m2: plan
    certifies plan.n, but N = max(m2, 1) 2^j below it go first, and the first
    converged with outer verdict "verified" is used (tolerances["lift_n"]).
    delta overrides the certified torus lower bound of estimate_delta, which
    samples grids no finer than delta_grid; n_max caps every lifted limit.
    """
    delta_grid = delta_grid or verify.GridSpec(9, 9)
    grid = grid or verify.GridSpec(6, 6)
    delta_est = float(delta) if delta is not None else estimate_delta(q, delta_grid)
    if delta_est <= 0:
        raise NotStrictlyPositiveError(
            f"not strictly positive on sampling grid: delta estimate {delta_est:.6e}",
            delta_est=delta_est,
        )
    plan = choose_truncation(q, delta_est, margin)
    base = max(q.deg2, 1)
    for n in [base << j for j in range(plan.n.bit_length()) if base << j < plan.n] + [plan.n]:
        try:
            factors, report = _factor_lifted(
                inverse_cesaro(q, n), n, q, grid, n_max, delta_est=delta_est, margin=margin
            )
        except (NotNonnegativeError, FactorNumericalError) as exc:
            if n < plan.n:
                continue
            if isinstance(exc, FactorNumericalError):
                raise
            raise StrictificationError(
                f"strictification insufficient: increase margin (inner screen: {exc})"
            ) from exc
        if n == plan.n or (report.converged and report.outer_verdict == "verified"):
            return factors, report, plan
