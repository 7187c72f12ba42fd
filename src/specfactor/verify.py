# Independent verification: torus grid sampling for positivity estimates,
# factorization residuals, and outerness certification through the zeros
# of det P, the eigenvalues of the block-companion pencil from one QZ
# solve (LAPACK zggev of scipy.linalg._flapack, the module linalg loads).
# It reads only Q and the factor coefficients, never the Schur limits,
# truncations or solves that built the factor.  The grid minimum reads one
# sampled stack of either kind, of Q times a power of two, which does not
# overflow, and builds its witness point alone.  A residual in one
# variable or two takes the Gram coefficients of the row-stacked factor
# list F from Q's z1 coefficients, both on the z2 grid first in two, and
# transforms Q - F* F once along z1 (in two, z^k read off the grid at
# k mod 2^g, as the DFT of one folds it).  Grid eigenvalue extremes for
# r <= 2 are closed-form.

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    circle_grid,
    circle_values,
    eval2_z1,
    eval2_z2,
)
from .linalg import _flapack, hermitian_part, pow2_scale

SINGULAR_TOL = 1e-10
RADIUS_TOL = 1e-6

_ggev = _flapack.zggev


@dataclass(frozen=True)
class GridSpec:
    """Roots-of-unity sampling grid: 2^g1 points, times 2^g2 for two variables."""

    g1: int = 9
    g2: int | None = None

    def __post_init__(self):
        for g in (self.g1, self.g2):
            if g is not None and not 3 <= g <= 16:
                raise ValueError(f"log2 grid size {g} out of range [3, 16]")

    @property
    def axis2(self) -> int:
        """log2 size of the second axis: g2, or g1 when g2 is unset."""
        return self.g1 if self.g2 is None else self.g2

    def points1(self) -> np.ndarray:
        return circle_grid(self.g1)

    def points2(self) -> np.ndarray:
        return circle_grid(self.axis2)


class GridMin(NamedTuple):
    min_eig: float
    point: tuple[complex, ...]
    max_eig: float


def _eig_range_stack(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # vals: (..., r, r) Hermitian stack; r <= 2 short-circuits the solver.
    if vals.shape[-1] == 1:
        return vals[..., 0, 0].real, vals[..., 0, 0].real
    if vals.shape[-1] == 2:
        # mid -+ rad of the Hermitian part [[a, b], [conj(b), d]], from halves: no overflow.
        # b is halved by * 0.5, not by a complex division by 2: only |b| is read.
        a, d = vals[..., 0, 0].real / 2, vals[..., 1, 1].real / 2
        b = vals[..., 0, 1] * 0.5 + np.conj(vals[..., 1, 0]) * 0.5
        mid, rad = a + d, np.hypot(a - d, np.abs(b))
        return mid - rad, mid + rad
    eigs = np.linalg.eigvalsh(hermitian_part(vals))
    return eigs[..., 0], eigs[..., -1]


def grid_min_eig(q, grid: GridSpec = GridSpec()) -> GridMin:
    """Minimum eigenvalue of Q over the sampling grid, with the attaining
    point, and the maximum eigenvalue over the grid from the same solve.
    Q is sampled times s = pow2_scale(q.dense), exactly, so its values
    neither overflow nor underflow; only the two extremes are divided by s
    (a max_eig past the largest double is inf), and only the point is built,
    circle_grid's own bits."""
    if not isinstance(q, (MatrixLaurentPoly1, MatrixLaurentPoly2)):
        raise TypeError(f"cannot grid-sample object of type {type(q).__name__}")
    s = pow2_scale(q.dense)
    if isinstance(q, MatrixLaurentPoly1):
        logs, vals = (grid.g1,), circle_values(q.dense * s, -q.origin[0], grid.g1)
    else:  # eval2_grid's two contractions
        logs, (o1, o2) = (grid.g1, grid.axis2), q.origin
        vals = eval2_z1(eval2_z2(q.dense * s, -o2, grid.axis2), -o1, grid.g1)
    mins, maxs = _eig_range_stack(vals)
    at = np.unravel_index(int(mins.argmin()), mins.shape)
    return GridMin(
        min_eig=float(mins[at]) / s,
        point=tuple(complex(np.exp(2j * np.pi * i / (1 << g))) for g, i in zip(logs, at)),
        max_eig=float(maxs.max()) / s,
    )


def _op_norms_stack(vals: np.ndarray) -> np.ndarray:
    # Hermitian stack: operator norm is the largest |eigenvalue|.
    if vals.shape[-1] == 1:
        return np.abs(vals[..., 0, 0])
    lo, hi = _eig_range_stack(vals)
    return np.maximum(np.abs(lo), np.abs(hi))


def _sup_op_norm(vals: np.ndarray) -> float:
    # max(_op_norms_stack(vals)); as ||A||_2 <= ||A||_F, for r >= 3 only points
    # whose Frobenius norm reaches the opnorm at the Frobenius maximum are solved.
    # The norms are compared on vals scaled by pow2_scale, whose squares
    # neither underflow nor overflow.
    if vals.shape[-1] < 3:
        return float(np.max(_op_norms_stack(vals)))
    s = pow2_scale(vals)
    fro = np.linalg.norm(vals * s, axis=(-2, -1))
    top = _op_norms_stack(vals[fro == fro.max()][:1]) * s
    return float(np.max(_op_norms_stack(vals[fro * (1 + 1e-12) >= top])))


def _gram_coeffs(h: np.ndarray) -> np.ndarray:
    # G_d = sum_j H_j* H_{j+d} at [J - 1 + d], |d| < J, for h = (H_0, ..., H_{J-1})
    # stacked (J, ..., rows, c), from the blocks H_i* H_j of W* W, W = [H_0 | ... ].
    n_j, batch, c = len(h), h.shape[1:-2], h.shape[-1]
    w = np.moveaxis(h, 0, -2).reshape(batch + (h.shape[-2], n_j * c))
    gram = (np.conj(np.swapaxes(w, -1, -2)) @ w).reshape(-1, n_j, c, n_j, c)
    g = np.zeros((2 * n_j - 1, len(gram), c, c), dtype=complex)
    for i in range(n_j):
        g[n_j - 1 - i : 2 * n_j - 1 - i] += gram[:, i].transpose(2, 0, 1, 3)
    return g.reshape((2 * n_j - 1,) + batch + (c, c))


def residual(q, factors, grid: GridSpec = GridSpec()) -> float:
    """Sup over the grid of opnorm(Q - sum_l F_l* F_l): one z1 transform of
    its z1 coefficients, taken to the z2 grid first in two variables.  Every
    factor must have as many variables as q and q.size columns."""
    if not isinstance(q, (MatrixLaurentPoly1, MatrixLaurentPoly2)):
        raise TypeError(f"cannot verify object of type {type(q).__name__}")
    single = isinstance(factors, (MatrixAnalyticPoly1, MatrixAnalyticPoly2))
    factors = [factors] if single else list(factors)
    one_var = isinstance(q, MatrixLaurentPoly1)
    kind = MatrixAnalyticPoly1 if one_var else MatrixAnalyticPoly2
    for i, f in enumerate(factors):
        if not isinstance(f, kind):
            raise TypeError(f"factor {i} is a {type(f).__name__}, expected {kind.__name__}")
        if f.cols != q.size:
            raise ValueError(f"factor {i} has width {f.cols}, expected {q.size}")
    # sum_l F_l* F_l = F* F = sum_d z1^d G_d for the row-stacked F = sum_j z1^j
    # H_j, each H_j a z2 polynomial in two variables (no factor: G = 0); e, the
    # z1 coefficients of Q - F* F, holds Q's z1^k at k + span less G_k.
    tops = np.cumsum([0] + [f.rows for f in factors])
    box = np.max([(1,) * len(q.origin)] + [f.dense.shape[:-2] for f in factors], axis=0)
    h = np.zeros(tuple(box) + (tops[-1], q.size), dtype=complex)
    for f, top, bottom in zip(factors, tops, tops[1:]):
        h[tuple(map(slice, f.dense.shape[:-2])) + (slice(top, bottom),)] = f.dense
    n_j, d = len(h), q.origin[0]
    span = max(d, n_j - 1)
    e = np.zeros((2 * span + 1,) + q.dense.shape[1:], dtype=complex)
    e[span - d : span + d + 1] = q.dense
    if not one_var:  # e and the H_j on the z2 grid
        e, h = eval2_z2(e, -q.origin[1], grid.axis2), eval2_z2(h, 0, grid.axis2)
    e[span + 1 - n_j : span + n_j] -= _gram_coeffs(h)
    diff = circle_values(e, -span, grid.g1) if one_var else eval2_z1(e, -span, grid.g1)
    return _sup_op_norm(diff)


class OuterVerdict(NamedTuple):
    verdict: str  # "verified" | "failed" | "inconclusive"
    witness: complex | None


def _companion_pencil(p: MatrixAnalyticPoly1) -> tuple[np.ndarray, np.ndarray]:
    # (A, B) with det(zB - A) = det P(z) / scale^r: identity blocks on the
    # r-th superdiagonal of A over its last block row -[P_0 ... P_{m-1}],
    # B = diag(I, ..., I, P_m), a constant P padded with P_1 = 0.
    if not p.is_square:
        raise ValueError("outerness needs square coefficients")
    c = (p.dense if p.degree else np.concatenate((p.dense, 0 * p.dense))) / (p.scale or 1.0)
    r, n = p.rows, p.rows * (len(c) - 1)
    a = np.eye(n, k=r, dtype=complex)
    a[-r:] = -np.hstack(c[:-1])
    b = np.eye(n, dtype=complex)
    b[-r:, -r:] = c[-1]
    return a, b


def outer_check(p: MatrixAnalyticPoly1) -> OuterVerdict:
    """Root criterion for outerness of a square matrix polynomial.

    The zeros of det P are the eigenvalues alpha/beta of the block-companion
    pencil, from one QZ solve.  Verified when every one has modulus >=
    1 - RADIUS_TOL (boundary zeros are legitimate; beta = 0 is a zero at
    infinity); failed with the smallest zero inside as witness otherwise;
    inconclusive when the pencil is singular (det P = 0 identically, some
    alpha and beta both negligible), where the root criterion does not apply.
    """
    a, b = _companion_pencil(p)
    lwork = int(_ggev(a, b, lwork=-1)[-2][0].real)
    alpha, beta, _, _, _, info = _ggev(a, b, 0, 0, lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"QZ solve of the companion pencil failed (ggev info {info})")
    tiny_a, tiny_b = SINGULAR_TOL * np.linalg.norm(a), SINGULAR_TOL * np.linalg.norm(b)
    if np.any((np.abs(alpha) <= tiny_a) & (np.abs(beta) <= tiny_b)):
        return OuterVerdict(verdict="inconclusive", witness=None)
    inside = np.abs(alpha) < (1.0 - RADIUS_TOL) * np.abs(beta)
    if not inside.any():
        return OuterVerdict(verdict="verified", witness=None)
    zeros = alpha[inside] / beta[inside]
    return OuterVerdict(verdict="failed", witness=complex(zeros[np.argmin(np.abs(zeros))]))
