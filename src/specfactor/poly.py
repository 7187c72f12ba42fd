# Matrix-coefficient Laurent and analytic polynomials in one and two
# variables, laid out here only: one function (_box) puts a coefficient
# dict, a constructor's or a file's, in a dense box, one array pass
# (_symmetric) makes a box of either Laurent kind exactly symmetric.  One
# base, _Poly, holds the box of all four kinds (dense, origin, scale; one
# coeff, one repr), read-only but for the 1-D analytic kind; the 1-D
# Laurent box is the inside of a stack padded with zero slabs, which only
# toeplitz_blocks, the one Toeplitz gather, and the Schur code read.  Also
# evaluation, adjoint products, the Toeplitz PSD screen, JSON.

from __future__ import annotations

import json
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import linalg

SYMMETRY_TOL = 1e-12
UNIT_CIRCLE_TOL = 1e-12


def _stacked(blocks, shape: tuple, names) -> np.ndarray:
    # The blocks in one (len, *shape) complex array: each block's shape is
    # checked, then one finiteness pass names the first bad one, names[i].
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    for name, b in zip(names, blocks):
        if b.shape != shape:
            raise ValueError(f"coefficient {name} has shape {b.shape}, expected {shape}")
    stack = np.array(blocks).reshape((len(blocks),) + shape)
    if not (finite := np.isfinite(stack).all(axis=(1, 2))).all():
        raise ValueError(f"coefficient {names[int(np.argmin(finite))]} contains NaN or infinite entries")
    return stack


def _box(coeffs: dict, shape: tuple, nvars: int, centred: bool) -> np.ndarray:
    """The one dict-to-box path: the blocks of coeffs, checked by _stacked
    and named by their indices as plain ints, in a zero box reaching the
    largest |index| on each axis, from minus it if centred (Laurent, size
    >= 1), else from 0 (analytic, indices >= 0)."""
    if centred and shape[0] < 1:
        raise ValueError("coefficient size must be >= 1")
    idx = np.array(list(coeffs), dtype=int).reshape(len(coeffs), nvars)
    names = [tuple(i) if nvars > 1 else i[0] for i in idx.tolist()]
    if not centred and (neg := (idx < 0).any(axis=1)).any():
        raise ValueError(f"analytic coefficient {names[int(np.argmax(neg))]} needs indices >= 0")
    blocks = _stacked(coeffs.values(), tuple(int(n) for n in shape), names)
    hi = np.abs(idx).max(axis=0, initial=0)
    lo = -hi if centred else 0 * hi
    box = np.zeros(tuple(hi - lo + 1) + blocks.shape[1:], dtype=complex)
    box[tuple((idx - lo).T)] = blocks
    return box


def _symmetric(box: np.ndarray) -> np.ndarray:
    """The one canonicalizer of both Laurent kinds, over a box centred on the
    origin.  Unless Q_-i = Q_i* exactly, it must hold within SYMMETRY_TOL *
    scale (else the first offender i >= 0 in index order is named).  Each
    pair becomes C_i = Q_i/2 + Q_-i*/2 at its index i >= 0 and C_i* at its
    mirror; zero pairs are dropped, the box is trimmed.  Returns C, in place
    of the box."""
    rev = (slice(None, None, -1),) * (box.ndim - 2)  # index i to -i

    def adjoint(a):  # of each block, in C order for the passes that follow
        return np.conjugate(a.swapaxes(-1, -2), order="C")

    flipped = adjoint(box[rev])  # Q_-i* in the place of Q_i
    if not (flipped == box).all():  # the tolerance test, skipped by an exact box
        dev = np.abs(flipped - box).max(axis=(-2, -1))
        tol = SYMMETRY_TOL * np.abs(box).max(initial=0.0)
        if (off := np.flatnonzero(dev > tol)).size:  # paired about the origin: the middle is i >= 0
            at = np.unravel_index(off[len(off) // 2], dev.shape)
            i = [int(a) - n // 2 for a, n in zip(at, dev.shape)]
            i, m = (tuple(i), (-i[0], -i[1])) if len(i) > 1 else (i[0], -i[0])
            raise ValueError(
                f"coefficient symmetry violated at index {i}: "
                f"max|Q_{m} - Q_{i}*| = {dev[at]:.3e} exceeds {tol:.3e}"
            )
    # C in place of the box, each term halved first: exact for normal
    # numbers, and no overflow for entries near the largest double.
    canon = np.add(np.multiply(box, 0.5, out=box), np.multiply(flipped, 0.5, out=flipped), out=box)
    # Each index before the origin in C order takes its mirror's exact adjoint, in place.
    flat = np.arange(box[..., 0, 0].size).reshape(box.shape[:-2] + (1, 1))
    np.copyto(canon, adjoint(canon[rev]), where=flat < flat.size // 2)
    keep = canon.any(axis=(-2, -1))
    canon[~keep] = 0  # a dropped pair holds +0.0, as an absent one does
    deg = np.abs(np.argwhere(keep) - np.array(keep.shape) // 2).max(axis=0, initial=0)
    trim = tuple(slice(n // 2 - d, n // 2 + d + 1) for n, d in zip(keep.shape, deg))
    return canon[trim]


class _Poly:
    """What all four kinds share: one dense box with the coefficient of
    z^i, one index per variable, at dense[origin + i], its rows x cols
    blocks and its scale, max|.| over the box."""

    __slots__ = ("dense", "origin", "rows", "cols", "scale")

    def _store(self, dense: np.ndarray, origin: tuple, scale: float | None = None):
        self.dense, self.origin = dense, origin
        self.rows, self.cols = dense.shape[-2:]
        self.scale = float(np.abs(dense).max(initial=0.0)) if scale is None else scale

    def _degrees(self) -> tuple:
        # The top index on each axis (for a Laurent kind, minus the bottom one too).
        return tuple(n - 1 - o for n, o in zip(self.dense.shape, self.origin))

    def coeff(self, *index: int) -> np.ndarray:
        """The coefficient at index, one int per variable: a view of dense
        inside the box, fresh writable zeros outside it."""
        if len(index) != (nvars := len(self.origin)):
            raise TypeError(f"{type(self).__name__}.coeff takes {nvars} indices, not {len(index)}")
        at = tuple(i + o for i, o in zip(index, self.origin))
        if all(0 <= a < n for a, n in zip(at, self.dense.shape)):
            return self.dense[at]
        return np.zeros((self.rows, self.cols), dtype=complex)

    def __repr__(self):
        degrees = ",".join(map(str, self._degrees()))
        return f"{type(self).__name__}(shape=({self.rows},{self.cols}), degrees=({degrees}))"


class MatrixLaurentPoly1(_Poly):
    """One-variable Laurent polynomial sum_k Q_k z^k with r x r coefficients.

    Self-adjoint on the unit circle: Q_{-k} must equal Q_k* within
    SYMMETRY_TOL * scale.  Coefficients are canonicalized on construction
    (exact symmetrization, zero top coefficients trimmed) so downstream
    Toeplitz assembly is exactly Hermitian.  stack, read-only and built
    once, holds Q_k at stack[degree + 1 + k] between zero slabs at k =
    +-(degree + 1), and dense = stack[1:-1]; coeffs, a read-only mapping,
    lists every |k| <= degree in the order 0, 1, -1, 2, -2, ..., views.
    """

    def __init__(self, size: int, coeffs: dict[int, np.ndarray]):
        self._canonical(_box(coeffs, (size, size), 1, centred=True))

    @classmethod
    def _from_box(cls, box: np.ndarray) -> "MatrixLaurentPoly1":  # Q_k at box[degree + k]
        return cls.__new__(cls)._canonical(box)

    def _canonical(self, box: np.ndarray) -> "MatrixLaurentPoly1":
        box = _symmetric(box)
        self.degree = d = len(box) // 2
        self.stack = np.zeros((2 * d + 3,) + box.shape[1:], dtype=complex)
        self.stack[1:-1] = box
        self.stack.flags.writeable = False
        self._store(self.stack[1:-1], (d,))
        self.size = self.rows
        order = (s * k for k in range(d + 1) for s in (1, -1))  # 0, 1, -1, 2, -2, ...
        self.coeffs = MappingProxyType({k: self.dense[d + k] for k in order})
        return self

    @classmethod
    def from_causal(cls, size: int, causal: dict[int, np.ndarray]) -> "MatrixLaurentPoly1":
        """Build from coefficients with k >= 0; negative side filled by adjoints."""
        if any(k < 0 for k in causal):
            raise ValueError("from_causal expects indices k >= 0")
        full = {k: np.asarray(v, dtype=complex) for k, v in causal.items()}
        return cls(size, {**full, **{-k: m.conj().T for k, m in full.items() if k > 0}})


class MatrixAnalyticPoly1(_Poly):
    """One-variable analytic polynomial P_0 + P_1 z + ... + P_m z^m.

    Coefficients may be rectangular (r_out x r_in); all must share a shape.
    dense, one writable stacked copy of the input, holds P_k at dense[k];
    coeffs are views of it.
    """

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("analytic polynomial needs at least one coefficient")
        shape = np.shape(coeffs[0])
        if len(shape) != 2:
            raise ValueError("coefficients must be 2-d matrices")
        self._store(_stacked(coeffs, shape, range(len(coeffs))), (0,))
        self.coeffs = list(self.dense)
        self.degree = len(self.coeffs) - 1

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


class _Poly2(_Poly):
    """What both two-variable kinds add: a read-only box, its degrees deg1,
    deg2, and coeffs, its nonzero blocks (views) in index order, j then k."""

    __slots__ = ("deg1", "deg2")

    def _store(self, dense: np.ndarray, origin: tuple, scale: float | None = None):
        dense.flags.writeable = False
        super()._store(dense, origin, scale)
        self.deg1, self.deg2 = self._degrees()

    @property
    def coeffs(self) -> MappingProxyType:
        (o1, o2), dense = self.origin, self.dense
        at = np.argwhere(dense.any(axis=(2, 3))).tolist()  # in C order
        return MappingProxyType({(j - o1, k - o2): dense[j, k] for j, k in at})


class MatrixLaurentPoly2(_Poly2):
    """Two-variable Laurent polynomial sum_{j,k} Q_jk z1^j z2^k.

    Self-adjoint on the torus: Q_{-j,-k} = Q_jk* within tolerance;
    canonicalized exactly on construction.  dense holds Q_jk at
    [j + deg1, k + deg2]; coeffs lists the nonzero blocks in index order,
    and Q_00 always, last if zero.
    """

    __slots__ = ("size",)

    def __init__(self, size: int, coeffs: dict[tuple[int, int], np.ndarray]):
        self._canonical(_box(coeffs, (size, size), 2, centred=True))

    @classmethod
    def _from_box(cls, box: np.ndarray) -> "MatrixLaurentPoly2":  # Q_jk at box[deg1 + j, deg2 + k]
        return cls.__new__(cls)._canonical(box)

    def _canonical(self, box: np.ndarray) -> "MatrixLaurentPoly2":
        box = _symmetric(box)
        self._store(box, (len(box) // 2, box.shape[1] // 2))
        self.size = self.rows
        return self

    @property
    def coeffs(self) -> MappingProxyType:
        return MappingProxyType({**super().coeffs, (0, 0): self.coeff(0, 0)})

    @classmethod
    def from_causal(cls, size, causal):
        """Build from one coefficient per mirror pair; adjoints filled in."""
        full = {}
        for (j, k), v in causal.items():
            if (j, k) in full:
                raise ValueError(
                    f"from_causal got both {(-int(j), -int(k))} and its mirror "
                    f"{(int(j), int(k))}; give one coefficient per mirror pair"
                )
            m = np.asarray(v, dtype=complex)
            full[(j, k)] = m
            if (j, k) != (0, 0):
                full[(-j, -k)] = m.conj().T
        return cls(size, full)


class MatrixAnalyticPoly2(_Poly2):
    """Two-variable analytic polynomial with coefficients on [0,m1] x [0,m2].

    dense is the (m1+1, m2+1, rows, cols) box; coeffs lists the nonzero
    blocks in index order.
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int, coeffs: dict[tuple[int, int], np.ndarray]):
        box = _box(coeffs, (rows, cols), 2, centred=False)
        (p,) = self.from_stack(box[None])
        self._store(p.dense, p.origin, p.scale)

    @classmethod
    def from_stack(cls, stack: np.ndarray) -> list[MatrixAnalyticPoly2]:
        """One polynomial per leading index of a (L, J, K, rows, cols) stack
        of checked blocks, each a read-only view of it trimmed to its
        degrees.  One nonzero mask and one max|.| give every degree and
        scale."""
        nonzero = stack.any(axis=(-2, -1))
        deg1 = _last_true(nonzero.any(axis=2)).tolist()
        deg2 = _last_true(nonzero.any(axis=1)).tolist()
        scales = np.abs(stack).max(axis=(1, 2, 3, 4), initial=0.0).tolist()
        polys = [cls.__new__(cls) for _ in stack]
        for p, dense, d1, d2, scale in zip(polys, stack, deg1, deg2, scales):
            p._store(dense[: d1 + 1, : d2 + 1], (0, 0), scale)
        return polys


def _last_true(mask: np.ndarray) -> np.ndarray:
    # Per row of a 2-d mask, the index of its last True (0 for none).
    return (mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)) * mask.any(axis=1)


def _check_unimodular(zeta) -> None:
    z = complex(zeta)
    if abs(abs(z) - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(f"evaluation point {z} is not on the unit circle")


def eval1(p, zeta) -> np.ndarray:
    """Evaluate a one-variable polynomial at a point: eval1_grid at one point.

    Laurent input requires |zeta| = 1 (negative powers use conj(zeta));
    analytic input accepts any point.
    """
    if isinstance(p, MatrixLaurentPoly1):
        _check_unimodular(zeta)
    return eval1_grid(p, [zeta])[0]


def eval2(p, zeta1, zeta2) -> np.ndarray:
    """Two-variable evaluation at one point; Laurent input requires torus points."""
    if isinstance(p, MatrixLaurentPoly2):
        _check_unimodular(zeta1)
        _check_unimodular(zeta2)
    return eval2_grid(p, [zeta1], [zeta2])[0, 0]


def adjoint_product(p: MatrixAnalyticPoly1) -> MatrixLaurentPoly1:
    """Laurent polynomial of P(z)* P(z) on the circle: Q_h = sum_j P_j* P_{j+h}."""
    m, c = p.degree, p.coeffs
    causal = {h: sum(c[j].conj().T @ c[j + h] for j in range(m - h + 1)) for h in range(m + 1)}
    return MatrixLaurentPoly1.from_causal(p.cols, causal)


def adjoint_product_list2(fs) -> MatrixLaurentPoly2:
    """Coefficientwise sum of two-variable products F* F over a factor list."""
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one factor")
    cols = fs[0].cols
    acc: dict[tuple[int, int], np.ndarray] = {}
    for f in fs:
        if f.cols != cols:
            raise ValueError("factors have mismatched coefficient sizes")
        items = f.coeffs.items()
        for (j1, k1), c1 in items:
            for (j2, k2), c2 in items:
                idx = (j2 - j1, k2 - k1)
                term = c1.conj().T @ c2
                acc[idx] = acc[idx] + term if idx in acc else term
    return MatrixLaurentPoly2(cols, acc)


def toeplitz_blocks(stack: np.ndarray, block_rows: np.ndarray, block_cols: np.ndarray) -> np.ndarray:
    """The 1-d block rows and columns of the block Toeplitz matrix with block
    (p, s) = Q_{p-s} = stack[..., len // 2 + p - s, :, :], the offset clipped
    to the zero end slabs: one offset per block, one batched gather."""
    *batch, length, r, c = stack.shape
    d = block_rows[:, None] - block_cols + length // 2
    blocks = np.take(stack, d, axis=-3, mode="clip")  # clip: offsets past the slabs read them
    return blocks.swapaxes(-3, -2).reshape(*batch, len(block_rows) * r, len(block_cols) * c)


def block_toeplitz(q: MatrixLaurentPoly1, n_blocks: int) -> np.ndarray:
    """N x N block Toeplitz matrix with block (p, s) = Q_{p-s}."""
    if n_blocks < 1:
        raise ValueError("need at least one block")
    idx = np.arange(n_blocks)
    return toeplitz_blocks(q.stack, idx, idx)


class ToeplitzVerdict:
    """linalg.psd_check's verdict on the N-block Toeplitz truncation of q;
    min_eig, the truncation's smallest eigenvalue, is solved on first read
    (from q: the truncation itself is not kept)."""

    def __init__(self, q: MatrixLaurentPoly1, n_blocks: int, ok: bool, min_eig: float | None = None):
        self._q, self.n_blocks, self.ok = q, n_blocks, ok
        if min_eig is not None:
            self.min_eig = min_eig

    @cached_property
    def min_eig(self) -> float:
        return linalg.psd_check(block_toeplitz(self._q, self.n_blocks)).min_eig


def toeplitz_psd_check(q: MatrixLaurentPoly1, n_blocks: int, tol: float = 0.0) -> ToeplitzVerdict:
    """PSD test of the N-block Toeplitz truncation (necessary for circle
    nonnegativity at every N): psd_check(T, tol).ok, decided by
    linalg.cholesky_psd(T, tol) where that passes, else by psd_check."""
    t = block_toeplitz(q, n_blocks)
    if linalg.cholesky_psd(t, tol):
        return ToeplitzVerdict(q, n_blocks, True)
    ok, lo = linalg.psd_check(t, tol=tol)
    return ToeplitzVerdict(q, n_blocks, ok, lo)


# -- vectorized grid evaluation (used by the verification module) ------------


def circle_grid(log2_points: int) -> np.ndarray:
    """The 2^g-th roots of unity, in index order."""
    n = 1 << log2_points
    return np.exp(2j * np.pi * np.arange(n) / n)


def circle_values(coeffs, lo: int, log2_points: int) -> np.ndarray:
    """Values at circle_grid(g) of sum_k C_k z^k, C_k = coeffs[k - lo]:
    index k folds onto k mod 2^g (z^k is periodic on the grid), then one
    unscaled inverse DFT along the first axis gives the (2^g, ...) values."""
    coeffs = np.asarray(coeffs, dtype=complex)
    folded = np.zeros((1 << log2_points,) + coeffs.shape[1:], dtype=complex)
    np.add.at(folded, (lo + np.arange(len(coeffs))) % len(folded), coeffs)
    return np.fft.ifft(folded, axis=0, norm="forward")


def _vandermonde(zs, lo: int, hi: int) -> np.ndarray:
    # (T, hi - lo + 1) matrix of z^k, lo <= k <= hi: for zs = g, circle_grid(g)'s
    # point t k mod 2^g, exact at any k; at points, z^-k = conj(z^k) (bit for bit).
    ks = np.arange(lo, hi + 1)
    if isinstance(zs, int):
        return circle_grid(zs)[np.outer(np.arange(1 << zs), ks) % (1 << zs)]
    pw = np.asarray(zs, dtype=complex)[:, None] ** np.abs(ks)
    return np.where(ks >= 0, pw, np.conj(pw))


def eval2_z1(coeffs: np.ndarray, lo: int, zs1) -> np.ndarray:
    """Values at zs1 (points, or an int g: circle_grid(g)) of sum_j C_j z1^j,
    C_j = coeffs[j - lo] on the leading axis: one Vandermonde contraction."""
    v1 = _vandermonde(zs1, lo, lo + len(coeffs) - 1)
    return (v1 @ coeffs.reshape(len(coeffs), -1)).reshape((len(v1),) + coeffs.shape[1:])


def eval2_z2(coeffs: np.ndarray, lo: int, zs2) -> np.ndarray:
    """eval2_z1 along axis 1 of one (J, K, ...) coefficient array, C_jk at
    coeffs[j, k - lo]: the (J, T2, ...) z1 coefficients on the z2 points."""
    v2 = _vandermonde(zs2, lo, lo + coeffs.shape[1] - 1)
    half = v2 @ coeffs.reshape(coeffs.shape[:2] + (-1,))
    return half.reshape(half.shape[:2] + coeffs.shape[2:])


def eval1_grid(p, zs: np.ndarray) -> np.ndarray:
    """Evaluate a one-variable polynomial at arbitrary points: (T, r, c) stack,
    eval2_z1's Vandermonde product over p.dense from its lowest power."""
    if not isinstance(p, (MatrixAnalyticPoly1, MatrixLaurentPoly1)):
        raise TypeError(f"cannot evaluate object of type {type(p).__name__}")
    return eval2_z1(p.dense, -p.origin[0], zs)


def eval2_grid(p, zs1: np.ndarray, zs2: np.ndarray) -> np.ndarray:
    """Evaluate a two-variable polynomial on a product grid: (T1, T2, r, c),
    eval2_z1(eval2_z2(p.dense, -o2, zs2), -o1, zs1) for p's origin (o1,
    o2), for points or an int g, circle_grid(g)."""
    if not isinstance(p, (MatrixAnalyticPoly2, MatrixLaurentPoly2)):
        raise TypeError(f"cannot evaluate object of type {type(p).__name__}")
    o1, o2 = p.origin
    return eval2_z1(eval2_z2(p.dense, -o2, zs2), -o1, zs1)


# -- shared JSON file format --------------------------------------------------
#
# {"kind": "laurent"|"analytic", "vars": 1|2, "size": r,
#  "degrees": [m] or [m1, m2],
#  "coeffs": [{"index": [k] or [j, k], "matrix": r x r array of [re, im]}]}
#
# Missing indices mean zero coefficients.  Laurent files must satisfy the
# coefficient symmetry invariant; analytic files use only nonnegative
# indices and skip the symmetry check.


class PolyFormatError(ValueError):
    """Input file does not conform to the polynomial JSON schema."""


def _matrix_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


# Each class's file kind and vars, and its constructor from the box _box
# makes of a file's coefficients.
_FILE_KINDS = {
    MatrixLaurentPoly1: ("laurent", 1, MatrixLaurentPoly1._from_box),
    MatrixAnalyticPoly1: ("analytic", 1, MatrixAnalyticPoly1),
    MatrixLaurentPoly2: ("laurent", 2, MatrixLaurentPoly2._from_box),
    MatrixAnalyticPoly2: ("analytic", 2, lambda box: MatrixAnalyticPoly2.from_stack(box[None])[0]),
}


def poly_to_json(p) -> dict:
    """File object of a polynomial of any of the four kinds: its nonzero
    coefficients and the stored origin, in index order; an analytic 2-D
    polynomial with no coefficients writes one zero (0, 0) entry."""
    if type(p) not in _FILE_KINDS:
        raise TypeError(f"cannot serialize object of type {type(p).__name__}")
    kind, nvars, _ = _FILE_KINDS[type(p)]
    origin = (0,) * nvars
    if p.rows != p.cols:
        raise ValueError("file format stores square coefficients only")
    items = enumerate(p.coeffs) if isinstance(p.coeffs, list) else p.coeffs.items()
    items = [((i,) if nvars == 1 else i, c) for i, c in items]
    indices = sorted(i for i, c in items if np.any(c) or i == origin) or [origin]
    return {
        "kind": kind,
        "vars": nvars,
        "size": p.rows,
        "degrees": list(p._degrees()),
        "coeffs": [{"index": list(i), "matrix": _matrix_to_json(p.coeff(*i))} for i in indices],
    }


def poly_from_json(obj, kind: str | None = None):
    """Reconstruct a polynomial from its JSON object.

    kind overrides the file's own "kind" field ("laurent" or "analytic");
    files without either are read as Laurent.
    """
    if not isinstance(obj, dict):
        raise PolyFormatError("top-level JSON value must be an object")
    file_kind = obj.get("kind")
    if kind is None:
        kind = file_kind if file_kind is not None else "laurent"
    if kind not in ("laurent", "analytic"):
        raise PolyFormatError(f"unknown polynomial kind {kind!r}")
    if file_kind is not None and file_kind != kind:
        raise PolyFormatError(f"file is marked {file_kind!r}, expected {kind!r}")
    try:
        nvars = int(obj["vars"])
        size = int(obj["size"])
        entries = obj["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PolyFormatError(f"missing or malformed field: {exc}") from exc
    if nvars not in (1, 2):
        raise PolyFormatError(f"vars must be 1 or 2, got {nvars}")
    if size < 1:
        raise PolyFormatError("size must be >= 1")
    if not isinstance(entries, list):
        raise PolyFormatError("coeffs must be a list")

    coeffs = {}
    for i, entry in enumerate(entries):
        try:
            index = tuple(int(x) for x in entry["index"])
            mat = entry["matrix"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PolyFormatError(f"coefficient {i}: malformed entry") from exc
        if len(index) != nvars:
            raise PolyFormatError(
                f"coefficient {i}: index length {len(index)} does not match vars {nvars}"
            )
        if kind == "analytic" and any(x < 0 for x in index):
            raise PolyFormatError(f"coefficient {i}: analytic index must be >= 0")
        if index in coeffs:
            raise PolyFormatError(f"coefficient {i}: duplicate index {index}")
        try:  # parsed only: the constructor checks each block's shape and finiteness
            coeffs[index] = np.array([[complex(c[0], c[1]) for c in row] for row in mat], dtype=complex)
        except (TypeError, ValueError, IndexError) as exc:
            raise PolyFormatError(f"coefficient {i}: malformed matrix entries") from exc

    from_box = next(f for k, v, f in _FILE_KINDS.values() if (k, v) == (kind, nvars))
    try:
        return from_box(_box(coeffs, (size, size), nvars, centred=kind == "laurent"))
    except ValueError as exc:  # a failed block check is reported by the file's entry number
        for i, m in enumerate(coeffs.values()):
            if m.shape != (size, size):
                raise PolyFormatError(
                    f"coefficient {i}: matrix shape {m.shape}, expected ({size},{size})") from exc
            if not np.isfinite(m).all():
                raise PolyFormatError(f"coefficient {i}: non-finite matrix entries") from exc
        raise PolyFormatError(str(exc)) from exc


def save_poly(path, p) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(poly_to_json(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_poly(path, kind: str | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PolyFormatError(f"invalid JSON in {path}: {exc}") from exc
    return poly_from_json(obj, kind=kind)
