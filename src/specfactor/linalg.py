# Dense complex Hermitian linear algebra of the factorization engine: one
# Hermitian part that cannot overflow, one validated eigensolver (its
# Hermitian test relative, at every scale) behind the PSD verdicts that
# solve for eigenvalues and behind P_0 (eigvalsh for values alone, eigh for
# the clamped PSD square root), one Cholesky Schur-complement kernel on
# potrf/trtrs/herk, which every dense elimination of the construction and
# the public schur_complement go through, a one-potrf PSD test tried before
# any eigensolve, scipy's banded Hermitian solve on pbsv/ptsv, and
# range-restricted minimum-norm solves, whose rank decision is one LAPACK
# SVD.  These routines (and verify's ggev) are the complex ones of scipy's
# compiled scipy.linalg._flapack and _fblas, loaded at import without the
# scipy.linalg package: what get_lapack_funcs and get_blas_funcs return.

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import NamedTuple

import numpy as np
import scipy

HERMITIAN_TOL = 1e-10
RANK_TOL = 1e-10
DEFAULT_CLAMP_TOL = 1e-9
RESIDUAL_RTOL = 1e-8


def _load(name: str):
    # scipy.linalg's compiled module name as scipy.linalg itself would import
    # it: the one already loaded, else found in scipy's linalg directory
    # (after `import scipy` has set up its bundled libraries) and registered
    # under its full name, so a later `import scipy.linalg` reuses it.
    name = f"scipy.linalg.{name}"
    if name in sys.modules:
        return sys.modules[name]
    spec = PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"no {name} in the scipy installed at {scipy.__path__}", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack, _fblas = _load("_flapack"), _load("_fblas")
_potrf, _trtrs, _pbsv, _ptsv = _flapack.zpotrf, _flapack.ztrtrs, _flapack.zpbsv, _flapack.zptsv
_herk = _fblas.zherk


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
    """Eigenvalues (real, ascending) and a unitary basis of eigenvectors, or None."""

    values: np.ndarray
    basis: np.ndarray | None


class PsdVerdict(NamedTuple):
    ok: bool
    min_eig: float


def as_matrix(a) -> np.ndarray:
    """Coerce to a nonempty 2-d complex array whose max|entry| is finite."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(np.max(np.abs(m))):
        raise ValueError("matrix contains NaN or infinite entries")
    return m


def pow2_scale(a) -> float:
    """The power of two s that puts s * max|a| in [0.5, 1) (s = 1 for a zero
    a; s stays within 2^(+-1021)).  s * a is exact above the subnormal range,
    so norms read on it neither overflow nor underflow at any scale of a,
    and compare as those of a would in exact arithmetic."""
    e = math.frexp(float(np.max(np.abs(a))))[1]
    return math.ldexp(1.0, -min(max(e, -1021), 1021))


def hermitian_part(h) -> np.ndarray:
    """(H + H*)/2 of a matrix or a stack, each term halved first: no overflow
    near the largest double, and (H + H*)/2's bits unless a half is subnormal."""
    half = h / 2  # halving commutes with the adjoint: one halving pass, not two
    return np.add(half, np.conj(np.swapaxes(half, -1, -2)), out=half)


def check_hermitian(h) -> np.ndarray:
    """Validate near-Hermitian input and return its Hermitian part: max|H -
    H*| must not exceed HERMITIAN_TOL * max|H|.  Relative at every scale: an
    H - H* that overflows exceeds max|H| anyway, a subnormal one is exact,
    and the bound rounds only for max|H| below about 1e-298."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {h.shape}")
    dev, bound = np.max(np.abs(h - h.conj().T)), HERMITIAN_TOL * np.max(np.abs(h))
    if dev > bound:
        raise ValueError(
            f"matrix is not Hermitian: max|H - H*| = {dev:.3e} exceeds "
            f"{HERMITIAN_TOL:.1e} * max|H| = {bound:.3e}"
        )
    return hermitian_part(h)


def eig_hermitian(h, *, vectors: bool = True) -> EigenPair:
    """Eigendecomposition of a Hermitian matrix (LAPACK, via numpy.linalg.eigh).

    Returns eigenvalues in ascending order and a unitary basis whose
    columns are the corresponding eigenvectors; vectors=False solves for
    the eigenvalues alone (numpy.linalg.eigvalsh) and leaves basis None.
    psd_check and psd_sqrt solve through it; the Schur limit's gap and
    conditioning floor, and verify's grid stacks, call eigvalsh directly.
    """
    h = check_hermitian(h)
    if not vectors:
        return EigenPair(values=np.linalg.eigvalsh(h), basis=None)
    return EigenPair(*np.linalg.eigh(h))


def psd_check(h, tol: float = 0.0) -> PsdVerdict:
    """Smallest-eigenvalue nonnegativity test.

    Passes iff min eig >= -tol * max |eig|, a test that does not change
    when h is rescaled.
    """
    vals = eig_hermitian(h, vectors=False).values
    lo = float(vals[0])
    return PsdVerdict(ok=lo >= -tol * float(np.max(np.abs(vals))), min_eig=lo)


def cholesky_psd(h: np.ndarray, tol: float) -> bool:
    """True when LAPACK potrf factors h + (floor/2) I, floor = tol max|h_ii|:
    for Hermitian h, proof that min eig(h) >= -floor >= -tol max|eig|.  A
    tol below 2^10 n eps, where rounding (about n eps max|h_ii|) nears
    floor/2, gives False, as does non-finite h; False decides nothing."""
    if tol < 2**10 * len(h) * np.finfo(float).eps:
        return False
    floor = tol * float(np.abs(h.diagonal()).max())
    shifted = np.array(h, dtype=complex)
    shifted.reshape(-1)[:: len(h) + 1] += floor / 2  # one copy, its diagonal in place
    chol, info = _potrf(shifted, lower=1, clean=0)
    return info == 0 and bool(np.isfinite(chol).all())


def solveh_banded(ab, b, lower=True) -> np.ndarray:
    """scipy.linalg.solveh_banded(ab, b, lower=True) bit for bit, without its
    wrapper: a two-row band by ptsv, a wider one by pbsv, inputs kept, and
    scipy's errors; only lower band storage, ab[i, j] = H[i + j, j]."""
    if lower is not True:
        raise ValueError("only lower band storage (lower=True) is implemented")
    ab, b = np.asarray_chkfinite(ab), np.asarray_chkfinite(b)
    if len(ab) == 2:
        *_, x, info = _ptsv(ab[0].real, ab[1, :-1], b)
    else:
        _, x, info = _pbsv(ab, b, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    return x


def psd_sqrt(h, clamp_tol: float = DEFAULT_CLAMP_TOL) -> np.ndarray:
    """Hermitian PSD square root, clamping marginal negative eigenvalues.

    Eigenvalues in [-clamp_tol*scale, 0) are treated as zero; anything
    below that raises NotPSDError.
    """
    pair = eig_hermitian(h)
    vals = pair.values
    scale = float(np.max(np.abs(vals)))
    floor = -clamp_tol * scale
    if vals[0] < floor:
        raise NotPSDError(
            f"matrix is not PSD: eigenvalue {vals[0]:.6e} below "
            f"-clamp_tol*scale = {floor:.6e}",
            eigenvalue=float(vals[0]),
        )
    clamped = np.where(vals < 0.0, 0.0, vals)
    return hermitian_part((pair.basis * np.sqrt(clamped)) @ pair.basis.conj().T)


def cholesky_complement(a, b, c, scale: float) -> np.ndarray:
    """Lower triangle of a - b* c^(-1) b by Cholesky c = L L* of the PSD block
    c (LAPACK potrf), y = L^(-1) b (trtrs) and a - y* y (BLAS herk), which
    read lower triangles alone; above the real diagonal, a's is copied.

    Non-finite b or c raises ValueError.  Singular c gets one retry with a
    1e-13 * scale diagonal jitter; if that fails too, c is not PSD and
    NotPSDError is raised.
    """
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    chol, info = _potrf(c, lower=1, clean=0)
    if info > 0:
        c = c.copy()
        c[np.diag_indices(len(c))] += 1e-13 * scale
        chol, info = _potrf(c, lower=1, clean=0)
        if info > 0:
            raise NotPSDError("matrix is not PSD: eliminated block not positive definite")
    return _herk(-1.0, _trtrs(chol, b, lower=1)[0], beta=1.0, c=a, trans=2, lower=1)


def from_lower(s) -> np.ndarray:
    """The exactly Hermitian matrix with the lower triangle of s (real diagonal)."""
    return np.tril(s) + np.tril(s, -1).conj().T


def schur_complement(m, k: int) -> np.ndarray:
    """Schur complement of a PSD matrix supported on the leading k coordinates.

    A - B* C^(-1) B, exactly Hermitian, from cholesky_complement with scale
    max|M|, so a singular C is eliminated with the same jitter retry as in
    the construction.  Raises NotPSDError when C is not PSD or the
    complement has an eigenvalue below -1e-8 max|M|; cholesky_psd(S, 1e-8),
    whose floor 1e-8 max|S_ii| is at most that where it passes, rules it out
    before any eigensolve.  The complement is returned unclamped.
    """
    m = check_hermitian(m)
    n = m.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"split index k = {k} out of range [1, {n - 1}]")
    scale = max(float(np.max(np.abs(m))), 1e-300)
    s = from_lower(cholesky_complement(m[:k, :k], m[k:, :k], m[k:, k:], scale))
    lo = 0.0 if cholesky_psd(s, 1e-8) else float(eig_hermitian(s, vectors=False).values[0])
    if lo < -1e-8 * scale:
        raise NotPSDError(
            f"matrix is not PSD: Schur complement eigenvalue {lo:.6e}", eigenvalue=lo
        )
    return s


def range_restricted_solve(
    rstar,
    b,
    residual_atol: float = 0.0,
) -> np.ndarray:
    """Minimum-norm solution X of Rstar X = B with ran X inside ran R.

    The numerical range of R = Rstar* is fixed by the singular values of
    one thin LAPACK SVD above RANK_TOL times the largest one.  Raises
    InconsistentSystemError when the residual exceeds
    RESIDUAL_RTOL * ||B||_F + residual_atol, which signals that B was not
    in the range of Rstar.
    """
    rstar = as_matrix(rstar)
    b = as_matrix(b)
    if rstar.shape[0] != b.shape[0]:
        raise ValueError(
            f"Rstar and B are not conformal: {rstar.shape} vs {b.shape}"
        )
    u, sigma, vh = np.linalg.svd(rstar, full_matrices=False)
    keep = sigma > RANK_TOL * sigma[0]
    # X = V diag(1/sigma) U* B over the kept singular triples: minimum
    # norm, supported on ran R = ran(V); zero when nothing is kept.
    x = vh[keep].conj().T @ ((u[:, keep].conj().T @ b) / sigma[keep, None])
    # Both norms are read on R* X - B and B scaled by pow2_scale(B):
    # unscaled, both overflow to inf above about 1e154 and their squares
    # underflow to 0 below about 1e-154, and either way any residual passes.
    s = pow2_scale(b)
    resid = float(np.linalg.norm((rstar @ x - b) * s))
    if resid > RESIDUAL_RTOL * float(np.linalg.norm(b * s)) + residual_atol * s:
        raise InconsistentSystemError(
            f"inconsistent system: residual {resid / s:.3e} exceeds "
            f"{RESIDUAL_RTOL:.1e} * ||B|| + {residual_atol:.3e}",
            residual=resid / s,
        )
    return x
