"""Reference constructions the tests compare the library's stored arrays
against; not part of the library."""

import numpy as np


def laurent_stack(coeff, degree: int) -> np.ndarray:
    """Coefficients Q_d = coeff(d), |d| <= degree, stacked for
    toeplitz_entries: stack[degree + 1 + d] = Q_d, plus zero slabs at
    d = +-(degree + 1) for clipped out-of-band lookups."""
    coeffs = [coeff(d) for d in range(-degree, degree + 1)]
    stack = np.zeros((2 * degree + 3,) + coeffs[0].shape, dtype=complex)
    stack[1:-1] = coeffs
    return stack


def toeplitz_entries(stack: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries T[x, y] of the block Toeplitz matrix with block (p, s) =
    Q_{p-s}, at the broadcast scalar indices rows, cols: the entrywise
    reference for poly.toeplitz_blocks."""
    h, r = len(stack) // 2, stack.shape[1]
    d = rows // r - cols // r + h  # a fresh array, clamped in place to [0, 2h]
    return stack[np.minimum(np.maximum(d, 0, out=d), 2 * h, out=d), rows % r, cols % r]


def raw_truncation(stack: np.ndarray, n_blocks: int) -> np.ndarray:
    """The n_blocks-block Toeplitz truncation, entry by entry."""
    idx = np.arange(n_blocks * stack.shape[1])
    return toeplitz_entries(stack, idx[:, None], idx)


def end_complement(stack: np.ndarray, b: int, n_blocks: int) -> np.ndarray:
    """Complement of the n_blocks-block Toeplitz truncation on its first and
    last b blocks, exactly Hermitian, from one dense solve over the blocks
    between them."""
    t, w = raw_truncation(stack, n_blocks), b * stack.shape[1]
    ends = np.r_[:w, len(t) - w : len(t)]
    mid = np.arange(w, len(t) - w)
    a = t[np.ix_(ends, ends)]
    if not len(mid):
        return a
    x = t[np.ix_(mid, ends)]
    s = a - x.conj().T @ np.linalg.solve(t[np.ix_(mid, mid)], x)
    return (s + s.conj().T) / 2
