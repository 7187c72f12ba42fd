# Dense complex Hermitian linear algebra used by the factorization engine:
# one Hermitian eigensolver funnel (LAPACK through numpy.linalg.eigh), PSD
# square roots with clamping, one Cholesky Schur-complement kernel, which
# every dense elimination of the construction and the public
# schur_complement go through, and range-restricted minimum-norm solves,
# whose rank decision is one LAPACK SVD.

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

DEFAULT_HERMITIAN_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-10
DEFAULT_CLAMP_TOL = 1e-9


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class InconsistentSystemError(ValueError):
    """Linear system has no solution within the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class EigenPair:
    """Eigenvalues (real, ascending) and a unitary basis of eigenvectors."""

    values: np.ndarray
    basis: np.ndarray


class PsdVerdict(NamedTuple):
    ok: bool
    min_eig: float


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or infinite entries")
    return m


def check_hermitian(h, tol: float = DEFAULT_HERMITIAN_TOL) -> np.ndarray:
    """Validate near-Hermitian input and return its exact Hermitian part.

    The deviation max|H - H*| must not exceed tol * (1 + max|H|).
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {h.shape}")
    dev = np.max(np.abs(h - h.conj().T))
    scale = 1.0 + np.max(np.abs(h))
    if dev > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max|H - H*| = {dev:.3e} exceeds "
            f"{tol:.1e} * (1 + max|H|) = {tol * scale:.3e}"
        )
    return (h + h.conj().T) / 2


def eig_hermitian(h) -> EigenPair:
    """Eigendecomposition of a Hermitian matrix (LAPACK, via numpy.linalg.eigh).

    Returns eigenvalues in ascending order and a unitary basis whose
    columns are the corresponding eigenvectors.  Every eigensolve of the
    construction goes through this function.
    """
    values, basis = np.linalg.eigh(check_hermitian(h))
    return EigenPair(values=values, basis=basis)


def psd_check(h, tol: float = 0.0) -> PsdVerdict:
    """Smallest-eigenvalue nonnegativity test.

    Passes iff min eig >= -tol * max |eig|, a test that does not change
    when h is rescaled.
    """
    pair = eig_hermitian(h)
    lo = float(pair.values[0])
    hi = float(np.max(np.abs(pair.values)))
    return PsdVerdict(ok=lo >= -tol * hi, min_eig=lo)


def psd_sqrt(h, clamp_tol: float = DEFAULT_CLAMP_TOL) -> np.ndarray:
    """Hermitian PSD square root, clamping marginal negative eigenvalues.

    Eigenvalues in [-clamp_tol*scale, 0) are treated as zero; anything
    below that raises NotPSDError.
    """
    pair = eig_hermitian(h)
    vals = pair.values
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    floor = -clamp_tol * scale
    if vals[0] < floor:
        raise NotPSDError(
            f"matrix is not PSD: eigenvalue {vals[0]:.6e} below "
            f"-clamp_tol*scale = {floor:.6e}",
            eigenvalue=float(vals[0]),
        )
    clamped = np.where(vals < 0.0, 0.0, vals)
    root = (pair.basis * np.sqrt(clamped)) @ pair.basis.conj().T
    return (root + root.conj().T) / 2


def cholesky_complement(a, b, c, scale: float) -> np.ndarray:
    """a - b* c^(-1) b by Cholesky of the PSD block c.

    Singular c gets one retry with a 1e-13 * scale diagonal jitter; if
    that fails too, c is not PSD and NotPSDError is raised.
    """
    try:
        x = cho_solve(cho_factor(c, lower=True), b)
    except np.linalg.LinAlgError:
        c = c.copy()
        c[np.diag_indices(len(c))] += 1e-13 * scale
        try:
            x = cho_solve(cho_factor(c, lower=True), b)
        except np.linalg.LinAlgError as exc:
            raise NotPSDError("matrix is not PSD: eliminated block not positive definite") from exc
    s = a - b.conj().T @ x
    return (s + s.conj().T) / 2


def schur_complement(m, k: int) -> np.ndarray:
    """Schur complement of a PSD matrix supported on the leading k coordinates.

    A - B* C^(-1) B from cholesky_complement with scale max|M|, so a
    singular C is eliminated with the same jitter retry as in the
    construction.  Raises NotPSDError when C is not PSD or the complement
    has an eigenvalue below -1e-8 max|M|; the complement is returned
    unclamped.
    """
    m = check_hermitian(m)
    n = m.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"split index k = {k} out of range [1, {n - 1}]")
    scale = max(float(np.max(np.abs(m))), 1e-300)
    s = cholesky_complement(m[:k, :k], m[k:, :k], m[k:, k:], scale)
    lo = float(eig_hermitian(s).values[0])
    if lo < -1e-8 * scale:
        raise NotPSDError(
            f"matrix is not PSD: Schur complement eigenvalue {lo:.6e}", eigenvalue=lo
        )
    return s


def embed_leading(s, n: int) -> np.ndarray:
    """Pad a k x k block to n x n with zeros (support on leading coordinates)."""
    s = as_matrix(s)
    k = s.shape[0]
    out = np.zeros((n, n), dtype=complex)
    out[:k, :k] = s
    return out


def range_restricted_solve(
    rstar,
    b,
    rank_tol: float = DEFAULT_RANK_TOL,
    residual_rtol: float = 1e-8,
    residual_atol: float = 0.0,
) -> np.ndarray:
    """Minimum-norm solution X of Rstar X = B with ran X inside ran R.

    The numerical range of R = Rstar* is fixed by the singular values of
    one thin LAPACK SVD above rank_tol times the largest one.  Raises
    InconsistentSystemError when the residual exceeds
    residual_rtol * ||B||_F + residual_atol, which signals that B was not
    in the range of Rstar.
    """
    rstar = as_matrix(rstar)
    b = as_matrix(b)
    if rstar.shape[0] != b.shape[0]:
        raise ValueError(
            f"Rstar and B are not conformal: {rstar.shape} vs {b.shape}"
        )
    u, sigma, vh = np.linalg.svd(rstar, full_matrices=False)
    keep = sigma > rank_tol * sigma[0]
    # X = V diag(1/sigma) U* B over the kept singular triples: minimum
    # norm, supported on ran R = ran(V); zero when nothing is kept.
    x = vh[keep].conj().T @ ((u[:, keep].conj().T @ b) / sigma[keep, None])
    resid = float(np.linalg.norm(rstar @ x - b))
    bnorm = float(np.linalg.norm(b))
    if resid > residual_rtol * bnorm + residual_atol:
        raise InconsistentSystemError(
            f"inconsistent system: residual {resid:.3e} exceeds "
            f"{residual_rtol:.1e} * ||B|| + {residual_atol:.3e}",
            residual=resid,
        )
    return x
