# Matrix-coefficient Laurent and analytic polynomials in one and two
# variables: representation with validated coefficient symmetry,
# evaluation on the circle/torus, adjoint products, the one block-Toeplitz
# indexer, and the shared JSON file format.

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from . import linalg

SYMMETRY_TOL = 1e-12
UNIT_CIRCLE_TOL = 1e-12


def _coeff_scale(arrays) -> float:
    mags = [np.max(np.abs(a)) for a in arrays if a.size]
    return float(max(mags)) if mags else 0.0


def _as_coeff(a, shape, what):
    m = np.asarray(a, dtype=complex)
    if m.shape != shape:
        raise ValueError(f"{what} has shape {m.shape}, expected {shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains NaN or infinite entries")
    return m


class MatrixLaurentPoly1:
    """One-variable Laurent polynomial sum_k Q_k z^k with r x r coefficients.

    Self-adjoint on the unit circle: Q_{-k} must equal Q_k* within
    SYMMETRY_TOL * scale.  Coefficients are canonicalized on construction
    (exact symmetrization, zero top coefficients trimmed) so downstream
    Toeplitz assembly is exactly Hermitian.
    """

    def __init__(self, size: int, coeffs: dict[int, np.ndarray]):
        if size < 1:
            raise ValueError("coefficient size must be >= 1")
        self.size = int(size)
        shape = (self.size, self.size)
        raw = {int(k): _as_coeff(v, shape, f"coefficient {k}") for k, v in coeffs.items()}
        scale = _coeff_scale(list(raw.values()))
        tol = SYMMETRY_TOL * scale
        top = max((abs(k) for k in raw), default=0)
        canon: dict[int, np.ndarray] = {}
        for k in range(0, top + 1):
            qk = raw.get(k, np.zeros(shape, dtype=complex))
            qmk = raw.get(-k, np.zeros(shape, dtype=complex))
            dev = np.max(np.abs(qmk - qk.conj().T)) if k else np.max(np.abs(qk - qk.conj().T))
            if dev > tol:
                raise ValueError(
                    f"coefficient symmetry violated at index {k}: "
                    f"max|Q_-k - Q_k*| = {dev:.3e} exceeds {tol:.3e}"
                )
            sym = (qk + qmk.conj().T) / 2
            canon[k] = sym
            if k:
                canon[-k] = sym.conj().T
        # Tight degree: drop exactly-zero top coefficient pairs.
        degree = top
        while degree > 0 and not np.any(canon[degree]) and not np.any(canon[-degree]):
            del canon[degree], canon[-degree]
            degree -= 1
        self.degree = degree
        self.coeffs = canon
        self.scale = _coeff_scale(list(canon.values()))

    @classmethod
    def from_causal(cls, size: int, causal: dict[int, np.ndarray]) -> "MatrixLaurentPoly1":
        """Build from coefficients with k >= 0; negative side filled by adjoints."""
        full: dict[int, np.ndarray] = {}
        for k, v in causal.items():
            if k < 0:
                raise ValueError("from_causal expects indices k >= 0")
            m = np.asarray(v, dtype=complex)
            full[k] = m
            if k > 0:
                full[-k] = m.conj().T
        return cls(size, full)

    def coeff(self, k: int) -> np.ndarray:
        return self.coeffs.get(k, np.zeros((self.size, self.size), dtype=complex))

    def __repr__(self):
        return f"MatrixLaurentPoly1(size={self.size}, degree={self.degree})"


class MatrixAnalyticPoly1:
    """One-variable analytic polynomial P_0 + P_1 z + ... + P_m z^m.

    Coefficients may be rectangular (r_out x r_in); all must share a shape.
    """

    def __init__(self, coeffs):
        coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
        if not coeffs:
            raise ValueError("analytic polynomial needs at least one coefficient")
        shape = coeffs[0].shape
        if len(shape) != 2:
            raise ValueError("coefficients must be 2-d matrices")
        self.coeffs = [_as_coeff(c, shape, f"coefficient {i}") for i, c in enumerate(coeffs)]
        self.rows, self.cols = shape
        self.degree = len(self.coeffs) - 1
        self.scale = _coeff_scale(self.coeffs)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def coeff(self, k: int) -> np.ndarray:
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return np.zeros((self.rows, self.cols), dtype=complex)

    def __repr__(self):
        return (
            f"MatrixAnalyticPoly1(shape=({self.rows},{self.cols}), "
            f"degree={self.degree})"
        )


class MatrixLaurentPoly2:
    """Two-variable Laurent polynomial sum_{j,k} Q_jk z1^j z2^k.

    Self-adjoint on the torus: Q_{-j,-k} = Q_jk* within tolerance;
    canonicalized exactly on construction.
    """

    def __init__(self, size: int, coeffs: dict[tuple[int, int], np.ndarray]):
        if size < 1:
            raise ValueError("coefficient size must be >= 1")
        self.size = int(size)
        shape = (self.size, self.size)
        raw = {
            (int(j), int(k)): _as_coeff(v, shape, f"coefficient {(j, k)}")
            for (j, k), v in coeffs.items()
        }
        scale = _coeff_scale(list(raw.values()))
        tol = SYMMETRY_TOL * scale
        zeros = np.zeros(shape, dtype=complex)
        canon: dict[tuple[int, int], np.ndarray] = {}
        seen = set()
        for idx in raw:
            if idx in seen:
                continue
            j, k = idx
            mirror = (-j, -k)
            seen.add(idx)
            seen.add(mirror)
            qa = raw.get(idx, zeros)
            qb = raw.get(mirror, zeros)
            dev = np.max(np.abs(qb - qa.conj().T))
            if dev > tol:
                raise ValueError(
                    f"coefficient symmetry violated at index {idx}: "
                    f"max|Q_-jk - Q_jk*| = {dev:.3e} exceeds {tol:.3e}"
                )
            sym = (qa + qb.conj().T) / 2
            if np.any(sym):
                canon[idx] = sym
                if mirror != idx:
                    canon[mirror] = sym.conj().T
        if (0, 0) not in canon:
            canon[(0, 0)] = zeros.copy()
        self.coeffs = canon
        self.deg1 = max(abs(j) for j, _ in canon)
        self.deg2 = max(abs(k) for _, k in canon)
        self.scale = _coeff_scale(list(canon.values()))

    @classmethod
    def from_causal(cls, size, causal):
        """Build from one coefficient per mirror pair; adjoints filled in."""
        full = {}
        for (j, k), v in causal.items():
            m = np.asarray(v, dtype=complex)
            full[(j, k)] = m
            if (j, k) != (0, 0):
                full[(-j, -k)] = m.conj().T
        return cls(size, full)

    def coeff(self, j: int, k: int) -> np.ndarray:
        return self.coeffs.get((j, k), np.zeros((self.size, self.size), dtype=complex))

    def __repr__(self):
        return (
            f"MatrixLaurentPoly2(size={self.size}, degrees=({self.deg1},{self.deg2}))"
        )


class MatrixAnalyticPoly2:
    """Two-variable analytic polynomial with coefficients on [0,m1] x [0,m2]."""

    def __init__(self, rows: int, cols: int, coeffs: dict[tuple[int, int], np.ndarray]):
        shape = (int(rows), int(cols))
        self.rows, self.cols = shape
        canon = {}
        for (j, k), v in coeffs.items():
            if j < 0 or k < 0:
                raise ValueError("analytic coefficients need indices >= 0")
            m = _as_coeff(v, shape, f"coefficient {(j, k)}")
            if np.any(m):
                canon[(int(j), int(k))] = m
        self.coeffs = canon
        self.deg1 = max((j for j, _ in canon), default=0)
        self.deg2 = max((k for _, k in canon), default=0)
        self.scale = _coeff_scale(list(canon.values()))

    def coeff(self, j: int, k: int) -> np.ndarray:
        return self.coeffs.get((j, k), np.zeros((self.rows, self.cols), dtype=complex))

    def __repr__(self):
        return (
            f"MatrixAnalyticPoly2(shape=({self.rows},{self.cols}), "
            f"degrees=({self.deg1},{self.deg2}))"
        )


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
    m = p.degree
    causal = {}
    for h in range(0, m + 1):
        acc = np.zeros((p.cols, p.cols), dtype=complex)
        for j in range(0, m - h + 1):
            acc = acc + p.coeffs[j].conj().T @ p.coeffs[j + h]
        causal[h] = acc
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
        for (j1, k1), c1 in f.coeffs.items():
            for (j2, k2), c2 in f.coeffs.items():
                idx = (j2 - j1, k2 - k1)
                term = c1.conj().T @ c2
                if idx in acc:
                    acc[idx] = acc[idx] + term
                else:
                    acc[idx] = term
    return MatrixLaurentPoly2(cols, acc)


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
    Q_{p-s}, at the broadcast scalar indices rows, cols."""
    h, r = len(stack) // 2, stack.shape[1]
    d = np.clip(rows // r - cols // r, -h, h)
    return stack[d + h, rows % r, cols % r]


def block_toeplitz(q: MatrixLaurentPoly1, n_blocks: int) -> np.ndarray:
    """N x N block Toeplitz matrix with block (p, s) = Q_{p-s}."""
    if n_blocks < 1:
        raise ValueError("need at least one block")
    idx = np.arange(n_blocks * q.size)
    return toeplitz_entries(laurent_stack(q.coeff, q.degree), idx[:, None], idx)


class ToeplitzVerdict(NamedTuple):
    ok: bool
    min_eig: float
    n_blocks: int


def toeplitz_psd_check(q: MatrixLaurentPoly1, n_blocks: int, tol: float = 0.0) -> ToeplitzVerdict:
    """PSD test of the N-block Toeplitz truncation (necessary for circle
    nonnegativity at every N)."""
    verdict = linalg.psd_check(block_toeplitz(q, n_blocks), tol=tol)
    return ToeplitzVerdict(ok=verdict.ok, min_eig=verdict.min_eig, n_blocks=n_blocks)


# -- vectorized grid evaluation (used by the verification module) ------------


def circle_grid(log2_points: int) -> np.ndarray:
    """The 2^g-th roots of unity, in index order."""
    n = 1 << log2_points
    return np.exp(2j * np.pi * np.arange(n) / n)


def eval1_grid(p, zs: np.ndarray) -> np.ndarray:
    """Evaluate a one-variable polynomial at many points: (T, r, r) stack."""
    zs = np.asarray(zs, dtype=complex)
    if isinstance(p, MatrixAnalyticPoly1):
        items = list(enumerate(p.coeffs))
        shape = (p.rows, p.cols)
    elif isinstance(p, MatrixLaurentPoly1):
        items = sorted(p.coeffs.items())
        shape = (p.size, p.size)
    else:
        raise TypeError(f"cannot evaluate object of type {type(p).__name__}")
    out = np.zeros((zs.size,) + shape, dtype=complex)
    for k, c in items:
        if not np.any(c):
            continue
        pw = zs**k if k >= 0 else np.conj(zs) ** (-k)
        out += pw[:, None, None] * c
    return out


def eval2_grid(p, zs1: np.ndarray, zs2: np.ndarray) -> np.ndarray:
    """Evaluate a two-variable polynomial on a product grid: (T1, T2, r, r)."""
    zs1 = np.asarray(zs1, dtype=complex)
    zs2 = np.asarray(zs2, dtype=complex)
    if isinstance(p, MatrixAnalyticPoly2):
        items = list(p.coeffs.items())
        shape = (p.rows, p.cols)
    elif isinstance(p, MatrixLaurentPoly2):
        items = list(p.coeffs.items())
        shape = (p.size, p.size)
    else:
        raise TypeError(f"cannot evaluate object of type {type(p).__name__}")
    out = np.zeros((zs1.size, zs2.size) + shape, dtype=complex)
    for (j, k), c in items:
        if not np.any(c):
            continue
        p1 = zs1**j if j >= 0 else np.conj(zs1) ** (-j)
        p2 = zs2**k if k >= 0 else np.conj(zs2) ** (-k)
        out += (p1[:, None] * p2[None, :])[:, :, None, None] * c
    return out


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


def _matrix_from_json(obj, size, what):
    try:
        m = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in obj],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise PolyFormatError(f"{what}: malformed matrix entries") from exc
    if m.shape != (size, size):
        raise PolyFormatError(f"{what}: matrix shape {m.shape}, expected ({size},{size})")
    if not np.all(np.isfinite(m)):
        raise PolyFormatError(f"{what}: non-finite matrix entries")
    return m


def poly_to_json(p) -> dict:
    if isinstance(p, MatrixLaurentPoly1):
        return {
            "kind": "laurent",
            "vars": 1,
            "size": p.size,
            "degrees": [p.degree],
            "coeffs": [
                {"index": [k], "matrix": _matrix_to_json(c)}
                for k, c in sorted(p.coeffs.items())
                if np.any(c) or k == 0
            ],
        }
    if isinstance(p, MatrixAnalyticPoly1):
        if not p.is_square:
            raise ValueError("file format stores square coefficients only")
        return {
            "kind": "analytic",
            "vars": 1,
            "size": p.rows,
            "degrees": [p.degree],
            "coeffs": [
                {"index": [k], "matrix": _matrix_to_json(c)}
                for k, c in enumerate(p.coeffs)
                if np.any(c) or k == 0
            ],
        }
    if isinstance(p, MatrixLaurentPoly2):
        return {
            "kind": "laurent",
            "vars": 2,
            "size": p.size,
            "degrees": [p.deg1, p.deg2],
            "coeffs": [
                {"index": [j, k], "matrix": _matrix_to_json(c)}
                for (j, k), c in sorted(p.coeffs.items())
                if np.any(c) or (j, k) == (0, 0)
            ],
        }
    if isinstance(p, MatrixAnalyticPoly2):
        if p.rows != p.cols:
            raise ValueError("file format stores square coefficients only")
        coeffs = [
            {"index": [j, k], "matrix": _matrix_to_json(c)}
            for (j, k), c in sorted(p.coeffs.items())
        ]
        if not coeffs:
            coeffs = [
                {
                    "index": [0, 0],
                    "matrix": _matrix_to_json(np.zeros((p.rows, p.rows), dtype=complex)),
                }
            ]
        return {
            "kind": "analytic",
            "vars": 2,
            "size": p.rows,
            "degrees": [p.deg1, p.deg2],
            "coeffs": coeffs,
        }
    raise TypeError(f"cannot serialize object of type {type(p).__name__}")


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
        coeffs[index] = _matrix_from_json(mat, size, f"coefficient {i}")

    try:
        if nvars == 1:
            if kind == "laurent":
                return MatrixLaurentPoly1(size, {k: m for (k,), m in coeffs.items()})
            top = max((k for (k,) in coeffs), default=0)
            dense = [
                coeffs.get((k,), np.zeros((size, size), dtype=complex))
                for k in range(top + 1)
            ]
            return MatrixAnalyticPoly1(dense)
        if kind == "laurent":
            return MatrixLaurentPoly2(size, coeffs)
        return MatrixAnalyticPoly2(size, size, coeffs)
    except ValueError as exc:
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
