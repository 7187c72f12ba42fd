# One-variable factorization engine.  A nonnegative Laurent polynomial Q of
# degree m is factored as Q = P*P from one Schur complement: S(m), the
# limit of the complements of truncated block Toeplitz matrices on their
# leading m+1 blocks, equals L* L for the lower-triangular block Toeplitz
# L of the P_k.  The truncations double along one chain N = b 2^j from 2b
# (b under a cap below 4b); one banded solve on LAPACK handles
# (linalg.solveh_banded) gives the first, and every doubling is one join of
# two copies of an end-block complement, from the raw 2b-block truncation
# on, with one small dense solve, lower triangles only.  That solve,
# and every corner complement, is linalg.cholesky_complement, as in
# linalg.schur_complement.  Every PSD decision (the screen, a corner, a
# failed elimination) is linalg.psd_verdict, eigenvalues only where its
# Cholesky fails: a witness, which the banded truncation must confirm, or
# a block PSD to working precision, the conditioning floor, which stops
# the limit.  Only the gap calls eigvalsh itself, where it can decide or
# is reported.  One check refuses a limit, a lift's too, priced over the
# memory budget before it builds anything.  P_0 is the square root of the
# corner block of S(m), and one range-restricted solve against P_0 reads
# P_1..P_m off its last block row; converged also means backward stable.
# A scalar root-pairing construction is an independent oracle.

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field

import numpy as np

from . import linalg, verify
from .linalg import solveh_banded
from .poly import (
    MatrixAnalyticPoly1,
    MatrixLaurentPoly1,
    block_toeplitz,
    toeplitz_blocks,
    toeplitz_psd_check,
)

DEFAULT_CONV_TOL = 1e-10
# Converged also needs residual_sup <= BACKWARD_TOL * scale (the CLI's default --tol).
BACKWARD_TOL = 100 * DEFAULT_CONV_TOL
DEFAULT_N_MAX = 4096
TRUNCATION_PSD_TOL = 1e-8
# The clamp of marginal negative eigenvalues in the square root giving P_0.
CLAMP_TOL = 1e-7
PAIRING_TOL = 1e-6  # the root-pairing oracle's circle and cluster distance


def memory_budget() -> int:
    """Half the physical memory, or half a smaller finite soft RLIMIT_AS."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return budget if soft == resource.RLIM_INFINITY else min(budget, soft // 2)


# refuse_over_budget refuses a Schur limit, of one variable or of a lift,
# whose arrays (limit_bytes) would need more than this.
MEMORY_BUDGET = memory_budget()


class NotNonnegativeError(ValueError):
    """Input fails a necessary condition for circle nonnegativity."""

    def __init__(self, message, min_eig=None, n_blocks=None):
        super().__init__(message)
        self.min_eig = min_eig
        self.n_blocks = n_blocks


class SchurConvergenceError(RuntimeError):
    """A Schur limit, of one variable or of a lift, refused over the memory
    budget before anything is built (refuse_over_budget); inside
    schur_limit alone, also _complement's signal of the conditioning floor."""


class FactorNumericalError(RuntimeError):
    """Extension solve inconsistent with the Schur complement structure."""


class UnpairedRootError(ValueError):
    """Boundary root with odd multiplicity: no factorization exists."""


@dataclass
class SchurResult:
    """The corner complement at truncation N = n_used and its gap to the one
    before; unconverged where the limit stopped short, as reason says, and
    still an upper bound for the limit in the PSD order."""

    value: np.ndarray
    n_used: int
    gap: float
    converged: bool
    reason: str = ""


@dataclass
class FactorReport:
    residual_sup: float
    outer_verdict: str
    n_used: int
    gap: float = 0.0
    converged: bool = True
    tolerances: dict = field(default_factory=dict)
    # Why the limit did not converge, or its residual (backward_checked); not in to_json.
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


def backward_checked(report: FactorReport, scale: float) -> FactorReport:
    """report, made unconverged with its residual as the reason when a
    converged limit left residual_sup above BACKWARD_TOL * scale."""
    if report.converged and report.residual_sup > BACKWARD_TOL * scale:
        report.converged = False
        report.degraded_reason = f"residual {report.residual_sup:.3e} above {BACKWARD_TOL:g} * scale"
    return report


def _banded_lower(stack: np.ndarray, n_blocks: int) -> np.ndarray:
    # Lower band storage of the n_blocks-truncation: ab[i, j] = T[i+j, j],
    # r-periodic in j, zero where i + j >= dim.
    r = stack.shape[1]
    dim = n_blocks * r
    bw = min(len(stack) // 2 * r - 1, dim - 1)
    band = np.arange(bw + 1)[:, None]
    column = toeplitz_blocks(stack, np.arange((bw + r) // r + 1), np.arange(1))  # T's first r columns
    pattern = column[band + np.arange(r), np.arange(r)]  # T[i + j, j], j < r
    ab = np.empty((bw + 1, dim), dtype=complex)
    ab.reshape(bw + 1, n_blocks, r)[:] = pattern[:, None]  # one broadcast over the block columns
    ab[:, dim - bw :][band + np.arange(bw) >= bw] = 0
    return ab


def _witness(n_blocks: int, what: str, min_eig=None) -> NotNonnegativeError:
    return NotNonnegativeError(f"Q not nonnegative on circle (witness at truncation N = {n_blocks}: "
                               f"{what})", min_eig=min_eig, n_blocks=n_blocks)


def _complement(a, b, c, scale: float, n_blocks: int) -> np.ndarray:
    """Lower triangle of a - b* c^(-1) b for the PSD block c (lower
    triangles read) by linalg.cholesky_complement.  If c fails to
    eliminate, the truncation at N = n_blocks is not PSD, unless c is PSD
    to working precision: the conditioning floor, SchurConvergenceError,
    which schur_limit turns into its unconverged result."""
    if not b.any():  # Q constant or zero: nothing to eliminate
        return a.copy()  # never a's memory: a join's a is its workspace
    try:
        return linalg.cholesky_complement(a, b, c, scale)
    except linalg.NotPSDError as exc:
        ok, lo = linalg.psd_verdict(c, TRUNCATION_PSD_TOL)
        if ok:
            raise SchurConvergenceError(f"conditioning floor at truncation N = {n_blocks} "
                                        "(eliminated block PSD to working precision)") from exc
        raise _witness(n_blocks, "eliminated blocks not positive definite", lo) from exc


def _checked_corner(s: np.ndarray, n_blocks: int) -> np.ndarray:
    ok, lo = linalg.psd_verdict(s, TRUNCATION_PSD_TOL)
    if not ok:
        raise _witness(n_blocks, f"corner complement eigenvalue {lo:.6e}", lo)
    return s


def truncated_schur(q: MatrixLaurentPoly1, k: int, n_blocks: int) -> np.ndarray:
    """Schur complement of the N-block Toeplitz truncation on the leading
    k+1 blocks, for any N >= k+1, from the engine's one banded solve over
    the trailing N-k-1 blocks (solveh_banded, one 1e-13 scale jitter retry).

    An upper bound, in the PSD order, for the infinite-operator complement;
    raises NotNonnegativeError when the truncation itself is not PSD.
    """
    if k < 0:
        raise ValueError("block index k must be >= 0")
    if n_blocks < k + 1:
        raise ValueError(f"need N >= k + 1, got N = {n_blocks}, k = {k}")
    lead, mid = np.arange(k + 1), np.arange(k + 1, n_blocks)
    s, coupling = toeplitz_blocks(q.stack, lead, lead), toeplitz_blocks(q.stack, mid, lead)
    if coupling.any():  # else N = k + 1 or Q is constant: nothing couples to the corner
        band = _banded_lower(q.stack, len(mid))
        try:
            try:
                x = solveh_banded(band, coupling, lower=True)
            except np.linalg.LinAlgError:
                band[0] += 1e-13 * max(q.scale, 1e-300)
                x = solveh_banded(band, coupling, lower=True)
        except np.linalg.LinAlgError as exc:
            raise _witness(n_blocks, "eliminated blocks not positive definite") from exc
        s -= coupling.conj().T @ x
        s = linalg.hermitian_part(s)
    return _checked_corner(s, n_blocks)


def _gap_norm(a: np.ndarray, b: np.ndarray) -> float:
    # ||a - b||_2 from the lower triangles of a and b.
    vals = np.linalg.eigvalsh(a - b)
    return float(max(abs(vals[0]), abs(vals[-1])))


def limit_bytes(q, k: int, n0: int) -> int:
    """Bytes schur_limit holds from its start n0 (start_blocks), for q or the
    pair (r, m), two phases added: truncated_schur at n0, 16 (5 v^2 + d (3 v
    + 2 bw)) for v = (k+1) r corner and d = (n0-k-1) r interior columns, bw
    = min((m+1) r, d) band rows (corner and its temporaries; coupling,
    solution, conjugate; band and pbsv's copy), then the joins, one per
    doubling, 16 * 11 w^2 for w = 2br (the segment and its join, three
    workspace arrays, the kernel's factor, solve, result and jitter copy,
    and room for the corner's copies), + 64 KiB."""
    r, m = (q.size, q.degree) if isinstance(q, MatrixLaurentPoly1) else q
    v, d, w = (k + 1) * r, (n0 - k - 1) * r, 2 * max(k + 1, m) * r
    return 16 * (5 * v * v + d * (3 * v + 2 * min((m + 1) * r, d)) + 11 * w * w) + 2**16


def _join_workspace(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The kept, coupling and middle arrays of _join for segments of the order
    # of t, the raw 2b-block truncation [[T_b, C], [C*, T_b]]: C* in place.
    w = len(t) // 2
    kept, coupling, middle = (np.zeros((2 * w, 2 * w), dtype=complex) for _ in range(3))
    middle[w:, :w] = t[:w, w:].conj().T
    return kept, coupling, middle


def _join(h: np.ndarray, scale: float, n_blocks: int, work) -> np.ndarray:
    # The end-block complement (lower triangle) H = [[E, F], [F*, G]] of a
    # segment, joined to a copy of itself by the Toeplitz block C: eliminating
    # M = [[G, C], [C*, E]] leaves diag(E, G) - U M^(-1) U*, U = diag(F, F*),
    # that of the N = n_blocks segment twice as long.  work, from
    # _join_workspace, is overwritten on H's blocks only.
    w = len(h) // 2
    kept, coupling, middle = work
    kept[:w, :w], kept[w:, w:] = h[:w, :w], h[w:, w:]
    coupling[:w, :w] = h[w:, :w]
    np.conjugate(h[w:, :w].T, out=coupling[w:, w:])
    middle[:w, :w], middle[w:, w:] = h[w:, w:], h[:w, :w]
    return _complement(kept, coupling, middle, scale, n_blocks)


def start_blocks(m: int, k: int, n_max: int) -> int:
    """schur_limit's first N, on the doubling chain b 2^j, b = max(k+1, m):
    2b, the raw truncation the joins start from, or b if 4b > n_max."""
    b = max(k + 1, m)
    return b if 4 * b > n_max else 2 * b


def refuse_over_budget(r: int, m: int, k: int, n_max: int, what: str) -> int:
    """n0 = start_blocks(m, k, n_max) for the Schur limit on the leading k+1
    blocks of an r x r input of degree m, unless its price limit_bytes((r, m),
    k, n0) is over MEMORY_BUDGET: then SchurConvergenceError."""
    n0 = start_blocks(m, k, n_max)
    if (need := limit_bytes((r, m), k, n0)) > MEMORY_BUDGET:
        raise SchurConvergenceError(f"{what}: its Schur limit from N = {n0} would need about "
                                    f"{need:.3e} B, over the memory budget of {MEMORY_BUDGET:.3e} B")
    return n0


def schur_limit(q: MatrixLaurentPoly1, k: int, n_max: int = DEFAULT_N_MAX) -> SchurResult:
    """Approximate the infinite-operator corner Schur complement by
    doubling the truncation N = n0, 2 n0, ... on the chain b 2^j (n0 from
    start_blocks, b = max(k+1, m)) until the gap closes.

    S_n0 is truncated_schur(q, k, n0), the one banded solve (at n0 = 2b,
    the raw 2b-block truncation's own corner complement; the benchmark's
    layer tests count its calls).  H, the complement of the N-truncation on
    its first and last b blocks, starts as that raw truncation, its own;
    each doubling joins it with a copy of itself (one dense 2b-block
    Cholesky solve, whatever N is), but the first from n0 = b.  S_N is H's
    complement on its leading k+1 blocks.  Lower triangles alone are kept
    until the value, exactly Hermitian, is returned.

    The truncation sequence is monotone nonincreasing in the PSD order,
    so the gap is a one-sided convergence certificate.  Its eigensolve
    runs only where the largest diagonal entry of the difference, a lower
    bound for the gap, lets it pass, or where it is reported.  All joins
    share one workspace.  A limit whose price, limit_bytes from n0, is
    over MEMORY_BUDGET is refused before it runs (refuse_over_budget).
    Doubling that stops short, at the block cap n_max or at the
    conditioning floor (a failed join of blocks PSD to working precision,
    or a witness that truncated_schur, within budget, does not confirm),
    returns the last corner unconverged, with its gap and the reason.
    """
    m, v = q.degree, (k + 1) * q.size  # v: the corner's order
    b, n0 = max(k + 1, m), refuse_over_budget(q.size, m, k, n_max, f"S({k}) not computed")
    scale = max(q.scale, 1e-300)
    tol = DEFAULT_CONV_TOL * scale
    s_prev = truncated_schur(q, k, n0)
    h = block_toeplitz(q, 2 * b)  # the raw 2b-block truncation, its own end-block complement
    work = _join_workspace(h)
    n, older, gap = n0, None, math.inf
    while (n_next := 2 * n) <= n_max:
        try:
            if n_next > 2 * b:  # from n0 = b, H is already the 2b truncation
                h = _join(h, scale, n_next, work)
            corner = _complement(h[:v, :v], h[v:, :v], h[v:, v:], scale, n_next)
            s_next = _checked_corner(corner, n_next)
        except SchurConvergenceError as floor:
            cause = f"at N = {n}: {floor}"
            break
        except NotNonnegativeError as witness:
            try:  # joins round unlike the banded truncation, which must confirm
                if limit_bytes(q, k, n_next) <= MEMORY_BUDGET:
                    truncated_schur(q, k, n_next)
            except NotNonnegativeError:
                raise witness
            cause = f"at N = {n}: conditioning floor, unconfirmed: {witness}"
            break
        # max|D_ii| <= ||D||_2 for D = s_prev - s_next: the gap is solved
        # only where it may pass (the margin is far above eigvalsh's
        # rounding) or, below, where it is reported.
        gap = None
        if np.abs(s_prev.diagonal() - s_next.diagonal()).max() <= tol * (1 + 1e-8):
            gap = _gap_norm(s_prev, s_next)
            if gap <= tol:
                return SchurResult(linalg.from_lower(s_next), n_next, gap, converged=True)
        older, s_prev, n = s_prev, s_next, n_next
    else:
        cause = f"at block cap N = {n_max} (expected near boundary zeros of Q)"
    if gap is None:
        gap = _gap_norm(older, s_prev)
    return SchurResult(linalg.from_lower(s_prev), n, gap, converged=False,
                       reason=f"slow Schur convergence: gap {gap:.3e} {cause}")


def factor(
    q: MatrixLaurentPoly1,
    n_max: int = DEFAULT_N_MAX,
    grid: verify.GridSpec | None = None,
    *,
    _skip_residual: bool = False,
) -> tuple[MatrixAnalyticPoly1, FactorReport]:
    """Factor a circle-nonnegative Laurent polynomial as Q = P*P with
    P analytic, degree <= deg Q, and P(0) Hermitian PSD.

    A limit that stops short (block cap or conditioning floor) rejects no
    input: its last corner, an upper bound for S(m), gives the factor, its
    gap and reason (degraded_reason) go in the report, and the residual is
    then gap-dominated.  Over the memory budget, SchurConvergenceError.
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
    res = schur_limit(q, m, n_max=n_max)
    last = res.value[m * r :, :]
    p0 = linalg.psd_sqrt(last[:, m * r :], clamp_tol=CLAMP_TOL)
    coeffs = [p0]
    if m > 0:
        try:
            x = linalg.range_restricted_solve(
                p0,
                last[:, : m * r],
                residual_atol=10.0 * (res.gap + DEFAULT_CONV_TOL * scale) + 1e-12 * scale,
            )
        except linalg.InconsistentSystemError as exc:
            raise FactorNumericalError(
                f"numerical failure: S({m}) structure violated "
                f"(solve residual {exc.residual:.3e}; tolerance too tight for "
                f"this input)"
            ) from exc
        coeffs += [x[:, k * r : (k + 1) * r] for k in range(m - 1, -1, -1)]  # x = [P_m | ... | P_1]

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
            "conv_tol": DEFAULT_CONV_TOL,
            "rank_tol": linalg.RANK_TOL,
            "clamp_tol": CLAMP_TOL,
            "grid_g": grid.g1,
            "scale": scale,
        },
        degraded_reason=res.reason,
    )
    return phat, backward_checked(report, scale)


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
    return MatrixAnalyticPoly1(wh @ p.dense)


def _poly_eval(coeffs_desc: np.ndarray, z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs_desc:
        acc = acc * z + c
    return acc


def scalar_root_factor(q: MatrixLaurentPoly1) -> MatrixAnalyticPoly1:
    """Classical root-pairing factorization for scalar Laurent polynomials.

    The roots of z^m q(z) come in conjugate-reciprocal pairs; the factor
    takes one root per pair, chosen with modulus >= 1, and circle-adjacent
    root clusters contribute half their multiplicity.  Fully independent
    of the Schur-complement path.
    """
    if q.size != 1:
        raise ValueError("root-pairing oracle is scalar-only")
    m, scale = q.degree, q.scale
    vmin = verify.grid_min_eig(q, verify.GridSpec(10)).min_eig
    if vmin < -1e-9 * scale:
        raise NotNonnegativeError(
            f"q not nonnegative on circle: sampled value {vmin:.6e}", min_eig=vmin
        )
    q0 = float(q.dense[m, 0, 0].real)

    # Coefficients of c(z) = z^m q(z), descending for np.roots.
    desc = q.dense[::-1, 0, 0]
    roots = np.roots(desc)
    deriv = (desc[:-1] * np.arange(2 * m, 0, -1)).astype(complex)
    polished = []
    for w in roots:
        dw = _poly_eval(deriv, w)
        if abs(dw) > 1e-12 * max(1.0, abs(_poly_eval(desc, w))):
            w = w - _poly_eval(desc, w) / dw
        polished.append(w)
    roots = np.array(polished)

    outside = [w for w in roots if abs(w) > 1.0 + PAIRING_TOL]
    boundary = [w for w in roots if abs(abs(w) - 1.0) <= PAIRING_TOL]

    selected = list(outside)
    if boundary:
        boundary.sort(key=lambda w: math.atan2(w.imag, w.real))
        clusters: list[list[complex]] = [[boundary[0]]]
        for w in boundary[1:]:
            if abs(w - clusters[-1][-1]) <= PAIRING_TOL * (1.0 + abs(w)):
                clusters[-1].append(w)
            else:
                clusters.append([w])
        if len(clusters) > 1 and abs(clusters[0][0] - clusters[-1][-1]) <= PAIRING_TOL * (
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
