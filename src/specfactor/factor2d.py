# Two-variable sum-of-squares pipeline.  The second variable is absorbed
# into enlarged block coefficients: the Cesaro-weighted polynomial Q^(N)
# is exactly the one-variable symbol of a compressed block Toeplitz
# operator, so one-variable factorization applies; splitting the factor's
# block columns back out produces at most N+1 analytic factors.  Strictly
# positive polynomials are factored exactly by pre-applying the inverse
# Cesaro weights, at the cost of choosing N large enough that the
# reweighting error stays below the positivity margin.

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import factor1d, verify
from .factor1d import FactorReport, NotNonnegativeError
from .poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    laurent_stack,
    toeplitz_entries,
)

DEFAULT_MARGIN = 1.0 / 3.0
TRUNCATION_CAP = 100_000


class NotStrictlyPositiveError(ValueError):
    """Estimated torus lower bound is not positive."""

    def __init__(self, message, delta_est=None):
        super().__init__(message)
        self.delta_est = delta_est


class StrictificationError(RuntimeError):
    """Reweighted polynomial failed the inner nonnegativity screen."""


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
    coeffs = {}
    for (j, k), c in q.coeffs.items():
        w = (n + 1 - abs(k)) / (n + 1)
        coeffs[(j, k)] = c / w if inverse else c * w
    return MatrixLaurentPoly2(q.size, coeffs)


def cesaro_smooth(q: MatrixLaurentPoly2, n: int) -> MatrixLaurentPoly2:
    """Scale coefficient (j, k) by (N+1-|k|)/(N+1); degrees unchanged."""
    return _reweight(q, n, inverse=False)


def inverse_cesaro(q: MatrixLaurentPoly2, n: int) -> MatrixLaurentPoly2:
    """Scale coefficient (j, k) by (N+1)/(N+1-|k|); undoes cesaro_smooth."""
    return _reweight(q, n, inverse=True)


def _offset_norms(q: MatrixLaurentPoly2) -> list[tuple[int, float]]:
    """(|k|, operator norm of Q_jk) for every k != 0, in sorted order,
    from one batched LAPACK SVD over the stacked coefficients."""
    offsets = [(abs(k), c) for (_, k), c in sorted(q.coeffs.items()) if k != 0]
    stack = np.array([c for _, c in offsets]).reshape(-1, q.size, q.size)
    return list(zip([k for k, _ in offsets], np.linalg.norm(stack, 2, axis=(-2, -1)).tolist()))


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
    delta_est * (1 - margin).  The bound falls monotonically in N (so does
    each floating-point term), so N doubles from m2, then bisects."""
    if delta_est <= 0:
        raise ValueError(f"delta_est must be positive, got {delta_est}")
    if not 0 < margin < 1:
        raise ValueError(f"margin must lie in (0, 1), got {margin}")
    budget = delta_est * (1.0 - margin)
    norms = _offset_norms(q)
    bounds = {}

    def fits(n: int) -> bool:
        bounds[n] = remainder_bound(q, n, norms)
        # Strict inequality with an ulp-level guard so rational ties
        # (mathematically not-strictly-below) push N up, never down.
        return bounds[n] < budget * (1.0 - 1e-12)

    lo, hi = q.deg2 - 1, q.deg2  # the bound misses at lo (or lo < m2) and fits at hi
    while not fits(hi):
        if hi >= TRUNCATION_CAP:
            raise ValueError(
                f"degenerate delta: no truncation below {TRUNCATION_CAP} satisfies "
                f"the bound {budget:.3e}"
            )
        lo, hi = hi, min(2 * hi + 1, TRUNCATION_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return LiftPlan(n=hi, r=q.size, delta_est=delta_est, bound_s=bounds[hi], margin=margin)


def lift_to_block(q: MatrixLaurentPoly2, n: int) -> MatrixLaurentPoly1:
    """One-variable Laurent polynomial whose coefficients are normalized
    (N+1) x (N+1) block compressions in the second variable.

    Block (p, s) of coefficient j is Q_{j, p-s} / (N+1).
    """
    if n < q.deg2:
        raise ValueError(f"need N >= m2 = {q.deg2}, got N = {n}")
    idx = np.arange(q.size * (n + 1))
    coeffs = {}
    for j in range(-q.deg1, q.deg1 + 1):
        stack = laurent_stack(partial(q.coeff, j), q.deg2)
        if stack.any() or j == 0:
            coeffs[j] = toeplitz_entries(stack / (n + 1), idx[:, None], idx)
    return MatrixLaurentPoly1(q.size * (n + 1), coeffs)


def unlift_factor(phi: MatrixAnalyticPoly1, r: int, n: int) -> list[MatrixAnalyticPoly2]:
    """Split a lifted analytic factor back into N+1 two-variable factors.

    The block column at position c from the left of each coefficient
    carries second-variable exponent N-c; row block l across all
    coefficients assembles the l-th factor.  One reshape of the stacked
    coefficients indexes the blocks as [l, j, c], and each factor takes
    views of its nonzero blocks.
    """
    big = r * (n + 1)
    if phi.rows != big or phi.cols != big:
        raise ValueError(
            f"lifted factor has shape ({phi.rows},{phi.cols}), expected ({big},{big})"
        )
    blocks = np.array(phi.coeffs).reshape(-1, n + 1, r, n + 1, r).transpose(1, 0, 3, 2, 4)
    factors = []
    for ell, nonzero in enumerate(blocks.any(axis=(-2, -1))):
        coeffs = {(j, n - pos): blocks[ell, j, pos] for j, pos in zip(*np.nonzero(nonzero))}
        factors.append(MatrixAnalyticPoly2(r, r, coeffs))
    return factors


def _factor_lifted(
    q: MatrixLaurentPoly2,
    n: int,
    target: MatrixLaurentPoly2,
    grid: verify.GridSpec,
    factor_opts: dict,
    **tolerances,
) -> tuple[list[MatrixAnalyticPoly2], FactorReport]:
    # Screen q on the grid, refuse a lift whose first truncation (at
    # schur_limit's n0) is over the memory budget before building it, and
    # factor the lift with factor1d.factor: screened, constructed and
    # outer-checked there, it is verified once, by the 2-D residual.
    screen = verify.grid_min_eig(q, grid)
    if screen.min_eig < -1e-9 * max(q.scale, 1e-300):
        raise NotNonnegativeError(
            f"Q not nonnegative on sampling grid: eigenvalue {screen.min_eig:.6e} "
            f"at {screen.point}",
            min_eig=screen.min_eig,
        )
    size, n0 = q.size * (n + 1), factor_opts.get("n0") or 4 * (q.deg1 + 1)
    need = factor1d.truncation_bytes((size, q.deg1), q.deg1, n0)
    if need > factor1d.MEMORY_BUDGET:
        raise factor1d.SchurConvergenceError(
            f"lift of size {size} not built: truncation N = {n0} would need about "
            f"{need:.3e} B, over the memory budget of {factor1d.MEMORY_BUDGET:.3e} B",
            gap=math.inf,
            partial=None,
        )
    psi = lift_to_block(q, n)
    phi, rep1d = factor1d.factor(
        psi, grid=verify.GridSpec(grid.g1), _skip_residual=True, **factor_opts
    )
    factors = unlift_factor(phi, q.size, n)
    report = FactorReport(
        residual_sup=verify.residual(target, factors, grid),
        outer_verdict=rep1d.outer_verdict,
        n_used=rep1d.n_used,
        gap=rep1d.gap,
        converged=rep1d.converged,
        tolerances=dict(rep1d.tolerances, lift_n=n, **tolerances),
        degraded_reason=rep1d.degraded_reason,
    )
    return factors, report


def factor_cesaro(
    q: MatrixLaurentPoly2,
    n: int,
    grid: verify.GridSpec | None = None,
    **factor_opts,
) -> tuple[list[MatrixAnalyticPoly2], FactorReport]:
    """Sum-of-squares factorization of the Cesaro-smoothed polynomial Q^(N).

    Produces at most N+1 factors of first-variable degree <= m1; the
    reported residual is against Q^(N) on the verification grid.
    """
    grid = grid or verify.GridSpec(6, 6)
    return _factor_lifted(q, n, cesaro_smooth(q, n), grid, factor_opts)


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
    Q is not strictly positive and is returned as it is.
    """
    degs = (q.deg1, q.deg2)
    top = (grid.g1, grid.g2 if grid.g2 is not None else grid.g1)
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
        sec = 1.0
        for m, g in zip(degs, logs):
            sec /= np.cos(np.pi * m / (1 << g))
        bound = (hi + lo) / 2 - sec * (hi - lo) / 2
        if lo - bound <= lo / 10 or logs == list(top):
            return float(bound)
        logs = [min(g + 1, t) for g, t in zip(logs, top)]


def factor_strict(
    q: MatrixLaurentPoly2,
    delta: float | None = None,
    margin: float = DEFAULT_MARGIN,
    delta_grid: verify.GridSpec | None = None,
    grid: verify.GridSpec | None = None,
    **factor_opts,
) -> tuple[list[MatrixAnalyticPoly2], FactorReport, LiftPlan]:
    """Exact sum-of-squares factorization of a strictly positive polynomial.

    Applies the Cesaro pipeline to the inverse-weighted polynomial so the
    weights cancel and the factors target Q itself.  delta overrides the
    certified torus lower bound of estimate_delta, which samples grids no
    finer than delta_grid.
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
    widened = inverse_cesaro(q, plan.n)
    try:
        factors, report = _factor_lifted(
            widened, plan.n, q, grid, factor_opts, delta_est=delta_est, margin=margin
        )
    except NotNonnegativeError as exc:
        raise StrictificationError(
            f"strictification insufficient: increase margin (inner screen: {exc})"
        ) from exc
    return factors, report, plan
