# One-variable factorization engine.  A nonnegative Laurent polynomial Q
# of degree m is factored as Q = P*P from one Schur complement: S(m), the
# limit of the complements of truncated block Toeplitz matrices on their
# leading m+1 blocks, equals L* L for the lower-triangular block Toeplitz
# L of the P_k.  The truncations double in size; two banded solves give
# the first two, and each later one joins two copies of the previous
# truncation's end-block complement with one small dense solve.  That
# solve, and every corner complement, is linalg.cholesky_complement, the
# kernel that linalg.schur_complement is built on as well.  P_0 is
# the square root of the corner block of S(m), and one range-restricted
# solve against P_0 reads P_1..P_m off its last block row.  A classical
# scalar root-pairing construction serves as an independent oracle.

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from . import linalg, verify
from .poly import (
    MatrixAnalyticPoly1,
    MatrixLaurentPoly1,
    circle_values,
    laurent_stack,
    toeplitz_entries,
    toeplitz_psd_check,
)

DEFAULT_CONV_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_N_MAX = 4096
TRUNCATION_PSD_TOL = 1e-8
# Rank threshold of the extension solve against P_0, and the clamp of
# marginal negative eigenvalues in the square root giving P_0.
RANK_TOL = linalg.DEFAULT_RANK_TOL
CLAMP_TOL = 1e-7
# Truncation doubling stops, as at the block cap, and factor2d refuses a
# lift, before a truncation whose arrays would need more than half the
# physical memory.
MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


class NotNonnegativeError(ValueError):
    """Input fails a necessary condition for circle nonnegativity."""

    def __init__(self, message, min_eig=None, n_blocks=None):
        super().__init__(message)
        self.min_eig = min_eig
        self.n_blocks = n_blocks


class SchurConvergenceError(RuntimeError):
    """Truncation hit the block cap or the memory budget before the gap closed."""

    def __init__(self, message, gap, partial):
        super().__init__(message)
        self.gap = gap
        self.partial = partial


class FactorNumericalError(RuntimeError):
    """Extension solve inconsistent with the Schur complement structure."""


class UnpairedRootError(ValueError):
    """Boundary root with odd multiplicity: no factorization exists."""


@dataclass
class SchurResult:
    """Approximated corner Schur complement with truncation metadata."""

    value: np.ndarray
    k: int
    n_used: int
    gap: float
    converged: bool


@dataclass
class FactorReport:
    residual_sup: float
    outer_verdict: str
    n_used: int
    gap: float = 0.0
    converged: bool = True
    tolerances: dict = field(default_factory=dict)
    # Why the Schur limit did not converge; not in to_json.
    degraded_reason: str = ""

    def to_json(self) -> dict:
        return {
            "residual_sup": self.residual_sup,
            "outer_verdict": self.outer_verdict,
            "N_used": self.n_used,
            "gap": self.gap,
            "converged": self.converged,
            "tolerances": self.tolerances,
        }


def _banded_lower(stack: np.ndarray, n_blocks: int) -> np.ndarray:
    # Lower band storage of the n_blocks-truncation: ab[i, j] = T[i+j, j].
    r = stack.shape[1]
    dim = n_blocks * r
    bw = min(len(stack) // 2 * r - 1, dim - 1)
    cols = np.arange(dim)
    rows = np.arange(bw + 1)[:, None] + cols
    ab = toeplitz_entries(stack, rows, cols)
    ab[rows >= dim] = 0
    return ab


def _complement(a, b, c, banded: bool, scale: float, n_blocks: int) -> np.ndarray:
    """a - b* c^(-1) b for the PSD block c: banded (lower band storage)
    by solveh_banded with one 1e-13 scale jitter retry, dense by
    linalg.cholesky_complement.  If the retry fails, the truncation at
    N = n_blocks is not PSD."""
    if not b.any():  # zero polynomial, or no blocks between the ends
        return a
    try:
        if not banded:
            return linalg.cholesky_complement(a, b, c, scale)
        try:
            x = solveh_banded(c, b, lower=True)
        except np.linalg.LinAlgError:
            c = c.copy()
            c[0] += 1e-13 * scale
            x = solveh_banded(c, b, lower=True)
    except (np.linalg.LinAlgError, linalg.NotPSDError) as exc:
        raise NotNonnegativeError(
            f"Q not nonnegative on circle (witness at truncation N = {n_blocks}: "
            f"eliminated blocks not positive definite)",
            n_blocks=n_blocks,
        ) from exc
    s = a - b.conj().T @ x
    return (s + s.conj().T) / 2


def _lead_complement(t: np.ndarray, n: int, scale: float, n_blocks: int) -> np.ndarray:
    # Complement of the dense PSD t on its leading n coordinates.
    return _complement(t[:n, :n], t[n:, :n], t[n:, n:], False, scale, n_blocks)


def _checked_corner(s: np.ndarray, n_blocks: int) -> np.ndarray:
    verdict = linalg.psd_check(s, tol=TRUNCATION_PSD_TOL)
    if not verdict.ok:
        raise NotNonnegativeError(
            f"Q not nonnegative on circle (witness at truncation N = {n_blocks}: "
            f"corner complement eigenvalue {verdict.min_eig:.6e})",
            min_eig=verdict.min_eig,
            n_blocks=n_blocks,
        )
    return s


def _ends(stack: np.ndarray, lead: int, trail: int, n_blocks: int, scale: float) -> np.ndarray:
    # Complement of the n_blocks-truncation on its first lead and last
    # trail blocks: one banded solve over the blocks between them.
    r = stack.shape[1]
    dim = n_blocks * r
    ends = np.r_[0 : lead * r, dim - trail * r : dim]
    a = toeplitz_entries(stack, ends[:, None], ends)
    coupling = toeplitz_entries(stack, np.arange(lead * r, dim - trail * r)[:, None], ends)
    ab = _banded_lower(stack, n_blocks - lead - trail)
    return _complement(a, coupling, ab, True, scale, n_blocks)


def truncated_schur(q: MatrixLaurentPoly1, k: int, n_blocks: int) -> np.ndarray:
    """Schur complement of the N-block Toeplitz truncation on the leading
    k+1 blocks, from one banded solve over the trailing N-k-1 blocks.

    An upper bound, in the PSD order, for the infinite-operator complement;
    raises NotNonnegativeError when the truncation itself is not PSD.
    """
    if k < 0:
        raise ValueError("block index k must be >= 0")
    if n_blocks < k + 1:
        raise ValueError(f"need N >= k + 1, got N = {n_blocks}, k = {k}")
    s = _ends(laurent_stack(q.coeff, q.degree), k + 1, 0, n_blocks, max(q.scale, 1e-300))
    return s if n_blocks == k + 1 else _checked_corner(s, n_blocks)


def _gap_norm(a: np.ndarray, b: np.ndarray) -> float:
    pair = linalg.eig_hermitian((a - b + (a - b).conj().T) / 2)
    return float(max(abs(pair.values[0]), abs(pair.values[-1])))


def truncation_bytes(q, k: int, n_blocks: int) -> int:
    """Bytes of the complex band, right-hand side and solution that
    truncated_schur(q, k, n_blocks) allocates: 16 r^2 N (m+1 + 2(k+1)).
    schur_limit checks it before each doubling; the joins' arrays do not
    grow with N, and the one end-block banded solve, with 2b right-hand
    sides, needs 16 r^2 (N-2b)(m+1 + 4b).  q is the polynomial, or the
    pair (r, m) of one not built yet."""
    r, m = (q.size, q.degree) if isinstance(q, MatrixLaurentPoly1) else q
    return 16 * r**2 * n_blocks * (m + 1 + 2 * (k + 1))


def _join(h: np.ndarray, c: np.ndarray, scale: float, n_blocks: int) -> np.ndarray:
    # Two copies of the end-block complement H = [[E, F], [F*, G]] of the
    # N/2-truncation, coupled by the Toeplitz block C: eliminating the middle
    # M = [[G, C], [C*, E]] leaves diag(E, G) - U M^(-1) U*, U = diag(F, F*),
    # the end-block complement of the N-truncation.
    w = len(h) // 2
    e, f, g = h[:w, :w], h[:w, w:], h[w:, w:]
    kept, coupling, middle = np.zeros_like(h), np.zeros_like(h), np.empty_like(h)
    kept[:w, :w], kept[w:, w:] = e, g
    coupling[:w, :w], coupling[w:, w:] = f.conj().T, f
    middle[:w, :w], middle[:w, w:], middle[w:, :w], middle[w:, w:] = g, c, c.conj().T, e
    return _complement(kept, coupling, middle, False, scale, n_blocks)


def schur_limit(
    q: MatrixLaurentPoly1,
    k: int,
    conv_tol: float = DEFAULT_CONV_TOL,
    n0: int | None = None,
    n_max: int = DEFAULT_N_MAX,
) -> SchurResult:
    """Approximate the infinite-operator corner Schur complement by
    doubling the truncation N = n0, 2 n0, ... (n0 >= b = max(k+1, m), so
    segments couple only through their end b blocks) until the gap closes.

    S_n0 is truncated_schur(q, k, n0).  One banded solve over the interior
    of the 2 n0-truncation gives its complement H on its first and last b
    blocks; each later doubling joins two copies of H with one dense
    2b-block Cholesky solve, whatever N is.  S_N is H's complement on its
    leading k+1 blocks.

    The truncation sequence is monotone nonincreasing in the PSD order,
    so the gap is a one-sided convergence certificate.  Doubling stops
    with SchurConvergenceError at the block cap n_max, or earlier when
    truncation_bytes of the next N exceeds MEMORY_BUDGET.
    """
    m, r = q.degree, q.size
    b = max(k + 1, m)
    if n0 is None:
        n0 = 4 * (m + 1)
    n0 = max(b, min(n0, max(n_max // 2, b)))
    scale = max(q.scale, 1e-300)
    stack = laurent_stack(q.coeff, q.degree)
    c = toeplitz_entries(stack, np.arange(b * r)[:, None], np.arange(b * r, 2 * b * r))
    s_prev = truncated_schur(q, k, n0)
    n, h = n0, None
    gap = math.inf
    while True:
        n_next = 2 * n
        need = truncation_bytes(q, k, n_next)
        if n_next > n_max or need > MEMORY_BUDGET:
            partial = SchurResult(value=s_prev, k=k, n_used=n, gap=gap, converged=False)
            if n_next > n_max:
                cause = f"at block cap N = {n_max} (expected near boundary zeros of Q)"
            else:
                cause = (
                    f"at N = {n}: truncation N = {n_next} would need about "
                    f"{need:.3e} B, over the memory budget of {MEMORY_BUDGET:.3e} B"
                )
            raise SchurConvergenceError(
                f"slow Schur convergence: gap {gap:.3e} {cause}", gap=gap, partial=partial
            )
        h = _ends(stack, b, b, n_next, scale) if h is None else _join(h, c, scale, n_next)
        s_next = _checked_corner(_lead_complement(h, (k + 1) * r, scale, n_next), n_next)
        gap = _gap_norm(s_prev, s_next)
        if gap <= conv_tol * scale:
            return SchurResult(value=s_next, k=k, n_used=n_next, gap=gap, converged=True)
        s_prev, n = s_next, n_next


def factor(
    q: MatrixLaurentPoly1,
    conv_tol: float = DEFAULT_CONV_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    n0: int | None = None,
    n_max: int = DEFAULT_N_MAX,
    grid: verify.GridSpec | None = None,
    *,
    _skip_residual: bool = False,
) -> tuple[MatrixAnalyticPoly1, FactorReport]:
    """Factor a circle-nonnegative Laurent polynomial as Q = P*P with
    P analytic, degree <= deg Q, and P(0) Hermitian PSD.

    Near-boundary-zero inputs that exhaust the truncation budget are not
    rejected: the factorization completes with the convergence gap
    recorded in the report, and the residual is then gap-dominated.
    A block cap n_max below 2(m + 1) leaves no room to double the S(m)
    truncation even once and raises ValueError.  The two-variable lift
    alone passes _skip_residual: it reports NaN for a residual the caller
    computes against its own target.
    """
    grid = grid or verify.GridSpec(9)
    m, r = q.degree, q.size
    scale = max(q.scale, 1e-300)
    if n_max < 2 * (m + 1):
        raise ValueError(
            f"block cap N = {n_max} is below the minimum 2(m + 1) = {2 * (m + 1)} "
            f"for degree m = {m}"
        )

    screen = toeplitz_psd_check(q, m + 1, tol=1e-9)
    if not screen.ok:
        raise NotNonnegativeError(
            f"Q not nonnegative on circle: Toeplitz truncation at N = {m + 1} "
            f"has eigenvalue {screen.min_eig:.6e}",
            min_eig=screen.min_eig,
            n_blocks=m + 1,
        )

    # S(m) = L* L with L[i, j] = P_{i-j}, so its last block row is
    # [P_0* P_m, ..., P_0* P_0]: P_0 is the root of the corner block, and
    # one minimum-norm solve, which keeps every P_k inside ran P_0, gives
    # the rest.
    reason = ""
    try:
        res = schur_limit(q, m, conv_tol=conv_tol, n0=n0, n_max=n_max)
    except SchurConvergenceError as err:
        res, reason = err.partial, str(err)
    last = res.value[m * r :, :]
    p0 = linalg.psd_sqrt(last[:, m * r :], clamp_tol=CLAMP_TOL)
    coeffs = [p0]
    if m > 0:
        try:
            x = linalg.range_restricted_solve(
                p0,
                last[:, : m * r],
                rank_tol=RANK_TOL,
                residual_atol=10.0 * (res.gap + conv_tol * scale) + 1e-12 * scale,
            )
        except linalg.InconsistentSystemError as exc:
            raise FactorNumericalError(
                f"numerical failure: S({m}) structure violated "
                f"(solve residual {exc.residual:.3e}; tolerance too tight for "
                f"this input)"
            ) from exc
        coeffs += np.split(x, m, axis=1)[::-1]  # x = [P_m | ... | P_1]

    phat = MatrixAnalyticPoly1(coeffs)
    resid = math.nan if _skip_residual else verify.residual(q, phat, grid)
    outer = verify.outer_check(phat)
    report = FactorReport(
        residual_sup=resid,
        outer_verdict=outer.verdict,
        n_used=res.n_used,
        gap=res.gap,
        converged=res.converged,
        tolerances={
            "conv_tol": conv_tol,
            "residual_tol": residual_tol,
            "rank_tol": RANK_TOL,
            "clamp_tol": CLAMP_TOL,
            "grid_g": grid.g1,
            "scale": scale,
        },
        degraded_reason=reason,
    )
    return phat, report


def normalize_gauge(p: MatrixAnalyticPoly1) -> MatrixAnalyticPoly1:
    """Multiply P on the left by the adjoint of the unitary polar factor
    W = U V* of P(0) = U S V* (one LAPACK SVD), making the constant
    coefficient W* P(0) = V S V* Hermitian PSD.

    Evaluation norms P(z)*P(z) are unchanged at every point.  For
    invertible P(0) the result is the unique factor in that gauge; on the
    kernel of a singular P(0) the full SVD's own unitaries complete W.
    """
    if not p.is_square:
        raise ValueError("gauge normalization needs square coefficients")
    u, _, vh = np.linalg.svd(p.coeffs[0])
    wh = (u @ vh).conj().T
    return MatrixAnalyticPoly1([wh @ c for c in p.coeffs])


def _poly_eval(coeffs_desc: np.ndarray, z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs_desc:
        acc = acc * z + c
    return acc


def scalar_root_factor(
    q: MatrixLaurentPoly1, pairing_tol: float = 1e-6
) -> MatrixAnalyticPoly1:
    """Classical root-pairing factorization for scalar Laurent polynomials.

    The roots of z^m q(z) come in conjugate-reciprocal pairs; the factor
    takes one root per pair, chosen with modulus >= 1, and circle-adjacent
    root clusters contribute half their multiplicity.  Fully independent
    of the Schur-complement path.
    """
    if q.size != 1:
        raise ValueError("root-pairing oracle is scalar-only")
    m = q.degree
    scale = q.scale
    if scale == 0.0:
        return MatrixAnalyticPoly1([np.zeros((1, 1))])

    vals = circle_values(laurent_stack(q.coeff, m), -m - 1, 10)[:, 0, 0].real
    vmin = float(np.min(vals))
    if vmin < -1e-9 * scale:
        raise NotNonnegativeError(
            f"q not nonnegative on circle: sampled value {vmin:.6e}", min_eig=vmin
        )
    q0 = float(q.coeff(0)[0, 0].real)
    if m == 0:
        return MatrixAnalyticPoly1([np.array([[np.sqrt(max(q0, 0.0))]])])

    # Coefficients of c(z) = z^m q(z), ascending then flipped for np.roots.
    asc = np.array([q.coeff(k - m)[0, 0] for k in range(2 * m + 1)], dtype=complex)
    desc = asc[::-1]
    roots = np.roots(desc)
    deriv = (desc[:-1] * np.arange(2 * m, 0, -1)).astype(complex)
    polished = []
    for w in roots:
        dw = _poly_eval(deriv, w)
        if abs(dw) > 1e-12 * max(1.0, abs(_poly_eval(desc, w))):
            w = w - _poly_eval(desc, w) / dw
        polished.append(w)
    roots = np.array(polished)

    outside = [w for w in roots if abs(w) > 1.0 + pairing_tol]
    boundary = [w for w in roots if abs(abs(w) - 1.0) <= pairing_tol]

    selected = list(outside)
    if boundary:
        boundary.sort(key=lambda w: math.atan2(w.imag, w.real))
        clusters: list[list[complex]] = [[boundary[0]]]
        for w in boundary[1:]:
            if abs(w - clusters[-1][-1]) <= pairing_tol * (1.0 + abs(w)):
                clusters[-1].append(w)
            else:
                clusters.append([w])
        if len(clusters) > 1 and abs(clusters[0][0] - clusters[-1][-1]) <= pairing_tol * (
            1.0 + abs(clusters[0][0])
        ):
            clusters[0] = clusters.pop() + clusters[0]
        for cluster in clusters:
            if len(cluster) % 2 != 0:
                raise UnpairedRootError(
                    f"not factorable: unpaired boundary root near {np.mean(cluster):.6g}"
                )
            rep = np.mean(cluster)
            rep = rep / abs(rep)
            selected.extend([rep] * (len(cluster) // 2))

    if len(selected) != m:
        raise UnpairedRootError(
            f"not factorable: root pairing selected {len(selected)} of {m} roots "
            f"(boundary multiplicities inconsistent)"
        )

    monic_desc = np.poly(np.array(selected)) if selected else np.array([1.0 + 0j])
    u_asc = monic_desc[::-1].astype(complex)
    gamma = np.sqrt(max(q0, 0.0) / float(np.sum(np.abs(u_asc) ** 2)))
    p_asc = gamma * u_asc
    p00 = p_asc[0]
    if abs(p00) > 0:
        p_asc = p_asc * (np.conj(p00) / abs(p00))
    return MatrixAnalyticPoly1([np.array([[c]]) for c in p_asc])
