import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import eig

from specfactor import corpus, verify
from specfactor.factor1d import factor, normalize_gauge
from specfactor.factor2d import factor_cesaro, factor_strict, inverse_cesaro
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    adjoint_product,
    adjoint_product_list2,
    circle_grid,
    eval1,
    eval1_grid,
    eval2_grid,
)
from specfactor.verify import (
    GridSpec,
    _companion_pencil,
    _eig_range_stack,
    _op_norms_stack,
    _sup_op_norm,
    grid_min_eig,
    outer_check,
    residual,
)

EPS = np.finfo(float).eps


def scalar_laurent(causal):
    return MatrixLaurentPoly1.from_causal(1, {k: [[v]] for k, v in causal.items()})


def scalar_analytic(coeffs):
    return MatrixAnalyticPoly1([np.array([[c]]) for c in coeffs])


class TestGridSpec:
    def test_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            GridSpec(2)
        with pytest.raises(ValueError, match="out of range"):
            GridSpec(9, 17)

    def test_points(self):
        assert GridSpec(3).points1().size == 8

    def test_second_axis_defaults_to_the_first(self):
        assert (GridSpec(5).axis2, GridSpec(5, 4).axis2) == (5, 4)
        assert GridSpec(5).points2().size == 32
        assert GridSpec(5, 4).points2().size == 16


class TestGridMinEig:
    def test_constant(self):
        assert grid_min_eig(scalar_laurent({0: 1.0})).min_eig == pytest.approx(1.0)

    def test_scalar_witness_at_minus_one(self):
        gm = grid_min_eig(scalar_laurent({0: 5.0, 1: 2.0}), GridSpec(9))
        assert gm.min_eig == pytest.approx(1.0, abs=1e-12)
        assert gm.point[0] == pytest.approx(-1.0)

    def test_two_variable_witness(self):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[5.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        gm = grid_min_eig(q, GridSpec(6, 6))
        assert gm.min_eig == pytest.approx(1.0, abs=1e-12)
        assert gm.point[0] == pytest.approx(-1.0)
        assert gm.point[1] == pytest.approx(-1.0)

    def test_max_eig_from_the_same_solve(self):
        gm = grid_min_eig(scalar_laurent({0: 5.0, 1: 2.0}), GridSpec(9))
        assert gm.max_eig == pytest.approx(9.0, abs=1e-12)
        rng = np.random.default_rng(4)
        q = corpus.sos_instance2(rng, 2, 1, 2)
        gm = grid_min_eig(q, GridSpec(5, 4))
        from specfactor.poly import eval2_grid

        eigs = np.linalg.eigvalsh(eval2_grid(q, GridSpec(5).points1(), GridSpec(4).points1()))
        assert gm.min_eig == pytest.approx(float(eigs[..., 0].min()), abs=1e-12 * q.scale)
        assert gm.max_eig == pytest.approx(float(eigs[..., -1].max()), abs=1e-12 * q.scale)

    def test_ridge_shift_monotone(self):
        rng = np.random.default_rng(3)
        q, _ = corpus.ridged_instance(rng, 2, 2)
        base = grid_min_eig(q).min_eig
        for c in (0.5, 1.0, 2.0):
            shifted_coeffs = dict(q.coeffs)
            shifted_coeffs[0] = shifted_coeffs[0] + c * np.eye(2)
            shifted = MatrixLaurentPoly1(2, shifted_coeffs)
            assert grid_min_eig(shifted).min_eig == pytest.approx(base + c, abs=1e-12)


class TestResidual:
    def test_exact_pair(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        p = scalar_analytic([2.0, 1.0])
        assert residual(q, p) <= 1e-12

    def test_constant(self):
        q = scalar_laurent({0: 2.0})
        p = scalar_analytic([np.sqrt(2.0)])
        assert residual(q, p) <= 1e-12

    def test_wrong_factor_seen_at_one(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        p = scalar_analytic([1.0, 1.0])
        # q - |p|^2 = 3 + z + 1/z peaks at 5 when z = 1
        assert residual(q, p) == pytest.approx(5.0, abs=1e-12)


def residual2_reference(q, factors, grid):
    # The per-factor loop: one grid evaluation and one product per factor.
    zs1, zs2 = grid.points1(), grid.points2()
    diff = eval2_grid(q, zs1, zs2)
    for f in factors:
        fv = eval2_grid(f, zs1, zs2)
        diff = diff - np.conj(np.swapaxes(fv, -1, -2)) @ fv
    return float(np.max(np.linalg.norm(diff, 2, axis=(-2, -1))))


def strict_instance(rng, r, m1, m2):
    q = corpus.sos_instance2(rng, r, m1, m2)
    coeffs = dict(q.coeffs)
    coeffs[(0, 0)] = coeffs[(0, 0)] + 0.5 * q.scale * np.eye(r)
    return MatrixLaurentPoly2(r, coeffs)


class TestResidual2:
    GRID = GridSpec(5, 4)

    def test_factor_strict_outputs_match_the_per_factor_loop(self):
        rng = np.random.default_rng(71)
        for r, m1, m2 in ((1, 1, 1), (2, 1, 2), (2, 2, 1)):
            q = strict_instance(rng, r, m1, m2)
            fs, rep, plan = factor_strict(q)
            assert len(fs) == rep.tolerances["lift_n"] + 1 > 1
            scale = grid_min_eig(q, self.GRID).max_eig
            got = residual(q, fs, self.GRID)
            assert abs(got - residual2_reference(q, fs, self.GRID)) <= 1e-13 * scale

    def test_factors_of_unequal_degrees(self):
        rng = np.random.default_rng(72)
        fs = [corpus.random_analytic2(rng, 2, m1, m2) for m1, m2 in ((1, 3), (2, 0), (0, 2))]
        for q in (adjoint_product_list2(fs), adjoint_product_list2(fs[:2])):
            scale = grid_min_eig(q, self.GRID).max_eig
            got = residual(q, fs, self.GRID)
            assert abs(got - residual2_reference(q, fs, self.GRID)) <= 1e-13 * scale
        assert got > 0.1 * scale  # the second q leaves F_3* F_3 unmatched

    def test_bare_factor_and_one_element_list(self):
        rng = np.random.default_rng(73)
        f = corpus.random_analytic2(rng, 2, 1, 2)
        q = corpus.sos_instance2(rng, 2, 1, 2)
        assert residual(q, f, self.GRID) == residual(q, [f], self.GRID)
        assert residual(q, [f], self.GRID) == pytest.approx(
            residual2_reference(q, [f], self.GRID), rel=1e-13
        )

    def test_empty_list_gives_the_sup_norm_of_q(self):
        rng = np.random.default_rng(74)
        q2 = corpus.sos_instance2(rng, 2, 1, 2)
        vals = eval2_grid(q2, self.GRID.points1(), self.GRID.points2())
        sup = np.max(np.linalg.norm(vals, 2, axis=(-2, -1)))
        assert residual(q2, [], self.GRID) == pytest.approx(sup, rel=1e-13)
        for r in (1, 2):
            q1, _ = corpus.ridged_instance(rng, r, 2)
            vals = eval1_grid(q1, GridSpec(9).points1())
            sup = np.max(np.linalg.norm(vals, 2, axis=(-2, -1)))
            assert residual(q1, [], GridSpec(9)) == pytest.approx(sup, rel=1e-13)

    def test_evaluations_do_not_grow_with_the_factor_count(self, monkeypatch):
        # Whatever the factor count: no grid evaluation of Q, one z2 product
        # for Q's z1 coefficients and one for the stacked factor, and one z1
        # product, of Q - F* F, whose output is the (T1, T2, r, r) grid array.
        rng = np.random.default_rng(75)
        q = corpus.sos_instance2(rng, 2, 1, 1)
        names = ("eval2_grid", "eval2_z2", "eval2_z1")
        shapes = {}

        def spy(name):
            original = getattr(verify, name)

            def wrapper(*args):
                out = original(*args)
                shapes[name].append(out.shape)
                return out

            monkeypatch.setattr(verify, name, wrapper)

        for name in names:
            spy(name)
        for n_factors in (1, 3, 9, 40):  # 40 factors: 80 rows, past T1 * r = 64
            shapes.update({name: [] for name in names})
            fs = [corpus.random_analytic2(rng, 2, 1, 1) for _ in range(n_factors)]
            got = residual(q, fs, self.GRID)
            assert got == pytest.approx(residual2_reference(q, fs, self.GRID), rel=1e-13)
            assert [len(shapes[name]) for name in names] == [0, 2, 1]
            assert shapes["eval2_z1"] == [(32, 16, 2, 2)]


def residual2_pointwise(q, factors, grid):
    # One F_l* F_l per factor and grid point, each F_l(z1, z2) summed
    # term by term from its coefficients.
    zs1, zs2 = grid.points1(), grid.points2()
    diff = eval2_grid(q, zs1, zs2)
    terms = [(np.array(list(f.coeffs)).reshape(-1, 2).T, np.array(list(f.coeffs.values())))
             for f in factors if f.coeffs]
    sup = 0.0
    for a, z1 in enumerate(zs1):
        for b, z2 in enumerate(zs2):
            acc = diff[a, b].copy()
            for (js, ks), cs in terms:
                fv = np.tensordot(z1**js * z2**ks, cs, axes=1)
                acc -= np.conj(fv).T @ fv
            sup = max(sup, float(np.linalg.norm(acc, 2)))
    return sup


class TestGramResidual:
    GRID = GridSpec(5, 4)

    def test_lifted_factors_of_plane_4_1(self):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[4.1]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        fs, rep, plan = factor_strict(q)
        assert plan.n == 34 and len(fs) == rep.tolerances["lift_n"] + 1 == 2
        # and the certified lift's 35 factors, which also sum to Q
        wide, _ = factor_cesaro(inverse_cesaro(q, plan.n), plan.n)
        assert len(wide) == 35
        scale = grid_min_eig(q, self.GRID).max_eig
        for fs in (fs, wide):
            got = residual(q, fs, self.GRID)
            assert abs(got - residual2_pointwise(q, fs, self.GRID)) <= 1e-13 * scale

    def test_factors_without_the_first_variable(self):
        # deg1 = 0 everywhere: one z1 coefficient, one Gram coefficient
        rng = np.random.default_rng(76)
        fs = [corpus.random_analytic2(rng, 2, 0, m2) for m2 in (0, 1, 3)]
        for q in (adjoint_product_list2(fs), corpus.sos_instance2(rng, 2, 1, 2)):
            scale = grid_min_eig(q, self.GRID).max_eig
            got = residual(q, fs, self.GRID)
            assert abs(got - residual2_pointwise(q, fs, self.GRID)) <= 1e-13 * scale
        assert got > 0.1 * scale

    def test_no_array_of_the_tall_grid_size(self):
        # 300 factors of 2 rows: the tall values F(z1, z2) would be
        # T1 * T2 * 600 * 2 entries; the residual never holds that many.
        rng = np.random.default_rng(77)
        fs = [corpus.random_analytic2(rng, 2, 1, 1) for _ in range(300)]
        q = adjoint_product_list2(fs)
        tall_bytes = 32 * 16 * 600 * 2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            got = residual(q, fs, self.GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tall_bytes
        assert got <= 1e-12 * q.scale


def residual2_longdouble(q, factors, grid):
    # Q - sum_l F_l* F_l summed term by term in np.clongdouble at the exact
    # grid points, z^k at the angle 2 pi (t k mod T) / T in long double, then
    # its sup opnorm (rounding the difference to double costs far less).
    pi = 4 * np.arctan(np.longdouble(1))

    def powers(g, lo, n):
        angles = 2 * pi * (np.outer(np.arange(1 << g), np.arange(lo, lo + n)) % (1 << g)) / (1 << g)
        return np.cos(angles) + 1j * np.sin(angles)

    def values(p):
        (o1, o2), (n1, n2) = p.origin, p.dense.shape[:2]
        half = np.einsum("bk,jkrc->jbrc", powers(grid.axis2, -o2, n2), p.dense.astype(np.clongdouble))
        return np.einsum("aj,jbrc->abrc", powers(grid.g1, -o1, n1), half)

    diff = values(q)
    for f in factors:
        fv = values(f)
        diff -= np.einsum("abrj,abrc->abjc", np.conj(fv), fv)
    return float(np.max(np.linalg.norm(diff.astype(complex), 2, axis=(-2, -1))))


class TestResidualAccuracy:
    def test_two_variables_near_a_long_double_reference(self):
        # The factors of factor_strict's certified lifts, N = plan.n, on its
        # own 64 x 64 grid, seeded and on plane c0=4.1 (35 lifted factors):
        # within 5e-16 * scale of the reference.  Q - F* F, transformed once
        # along z1 from its coefficients, meets it; a z1 transform of Q's and
        # of the Gram coefficients apart, subtracted on the grid, misses it.
        grid, rng = GridSpec(6, 6), np.random.default_rng(81)
        qs = [strict_instance(rng, r, m1, m2) for r, m1, m2 in
              ((1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (1, 2, 2))]
        qs.append(MatrixLaurentPoly2.from_causal(1, {(0, 0): [[4.1]], (1, 0): [[1.0]], (0, 1): [[1.0]]}))
        for q in qs:
            n = factor_strict(q)[2].n
            fs, _ = factor_cesaro(inverse_cesaro(q, n), n)
            assert len(fs) == n + 1
            got = residual(q, fs, grid)
            assert abs(got - residual2_longdouble(q, fs, grid)) <= 5e-16 * q.scale
        assert len(fs) == 35


class TestFactorWidth:
    def test_narrow_factor_raises_in_both_branches(self):
        rng = np.random.default_rng(78)
        q2 = corpus.sos_instance2(rng, 2, 1, 1)
        f2 = corpus.random_analytic2(rng, 2, 1, 1)
        narrow2 = MatrixAnalyticPoly2(2, 1, {(0, 0): np.ones((2, 1)), (1, 1): np.ones((2, 1))})
        with pytest.raises(ValueError, match="factor 0 has width 1, expected 2"):
            residual(q2, narrow2)
        with pytest.raises(ValueError, match="factor 1 has width 1, expected 2"):
            residual(q2, [f2, narrow2, f2])
        q1, _ = corpus.ridged_instance(rng, 2, 2)
        narrow1 = MatrixAnalyticPoly1([np.ones((2, 1)), np.ones((2, 1))])
        with pytest.raises(ValueError, match="factor 0 has width 1, expected 2"):
            residual(q1, narrow1)
        wide1 = MatrixAnalyticPoly1([np.ones((1, 3))])
        with pytest.raises(ValueError, match="width 3"):
            residual(q1, [wide1])


class TestFactorKind:
    def test_factor_of_the_other_variable_count_raises_in_both_branches(self):
        rng = np.random.default_rng(79)
        q1, _ = corpus.ridged_instance(rng, 2, 2)
        q2 = corpus.sos_instance2(rng, 2, 1, 1)
        f1 = corpus.random_analytic1(rng, 2, 2)
        f2 = corpus.random_analytic2(rng, 2, 1, 1)
        one, two = "MatrixAnalyticPoly1", "MatrixAnalyticPoly2"
        cases = [
            (q2, f1, f"factor 0 is a {one}, expected {two}"),
            (q1, f2, f"factor 0 is a {two}, expected {one}"),
            (q2, [f2, f1, f2], f"factor 1 is a {one}, expected {two}"),
            (q1, [f1, f1, f2], f"factor 2 is a {two}, expected {one}"),
        ]
        for q, factors, message in cases:
            with pytest.raises(TypeError, match=message):
                residual(q, factors)


def residual1_pointwise(q, factors, grid):
    # The per-factor loop at each grid point: values by complex powers,
    # one F_l* F_l per factor.  Returns the sup and the larger of
    # sup ||Q|| and sup ||sum_l F_l* F_l|| as its scale.
    zs = grid.points1()
    qv = eval1_grid(q, zs)
    gram = np.zeros_like(qv)
    for f in factors:
        fv = eval1_grid(f, zs)
        gram = gram + np.conj(np.swapaxes(fv, -1, -2)) @ fv
    sups = [float(np.max(np.linalg.norm(v, 2, axis=(-2, -1)))) for v in (qv - gram, qv, gram)]
    return sups[0], max(sups[1:])


class TestCoefficientResidual:
    GRID = GridSpec(9)

    def check(self, q, factors, grid=GRID):
        listed = factors if isinstance(factors, list) else [factors]
        ref, scale = residual1_pointwise(q, listed, grid)
        assert abs(residual(q, factors, grid) - ref) <= 1e-13 * scale
        return ref, scale

    def test_one_factor(self):
        rng = np.random.default_rng(82)
        for r in (1, 2, 3):
            q, _ = corpus.ridged_instance(rng, r, 3)
            p, _ = factor(q)
            self.check(q, p)
            self.check(q, corpus.random_analytic1(rng, r, 3))

    def test_factors_of_different_degrees_and_row_counts(self):
        rng = np.random.default_rng(83)
        fs = [
            MatrixAnalyticPoly1([corpus.disk_uniform(rng, (rows, 3)) for _ in range(deg + 1)])
            for rows, deg in ((1, 0), (4, 3), (2, 1), (3, 5))
        ]
        q, _ = corpus.ridged_instance(rng, 3, 2)
        ref, scale = self.check(q, fs)
        assert ref > 0.1 * scale
        q = adjoint_product(fs[1])
        self.check(q, fs[1:2])
        assert residual(q, fs[1:2], self.GRID) <= 1e-13 * q.scale

    def test_factor_degree_above_that_of_q(self):
        # degree 6 against m = 2; on 8 points the Gram coefficients fold
        rng = np.random.default_rng(84)
        q, _ = corpus.ridged_instance(rng, 3, 2)
        f = corpus.random_analytic1(rng, 3, 6)
        for grid in (GridSpec(3), GridSpec(4), self.GRID):
            ref, scale = self.check(q, [f, corpus.random_analytic1(rng, 3, 1)], grid)
            assert ref > 0.1 * scale

    def test_empty_list_gives_the_sup_norm_of_q(self):
        rng = np.random.default_rng(85)
        for r in (3, 5):
            q, _ = corpus.ridged_instance(rng, r, 4)
            ref, scale = self.check(q, [])
            assert ref == pytest.approx(scale, rel=1e-15)


def op_norm_stacks(rng, r):
    def cnormal(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    herm = cnormal((512, r, r))
    u = cnormal((512, r))
    return {
        "random": cnormal((512, r, r)),
        "random hermitian": herm + np.conj(np.swapaxes(herm, -1, -2)),
        "rank one": u[:, :, None] * np.conj(u[:, None, :]) * rng.uniform(-1, 1, (512, 1, 1)),
        "all equal": np.broadcast_to(herm[0] + np.conj(herm[0]).T, (512, r, r)),
        "zero": np.zeros((512, r, r), dtype=complex),
        "torus": cnormal((32, 16, r, r)),
    }


class TestSupOpNorm:
    GRID = GridSpec(9)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_equals_the_unpruned_maximum_bit_for_bit(self, r):
        rng = np.random.default_rng(86 + r)
        for vals in op_norm_stacks(rng, r).values():
            assert _sup_op_norm(vals) == float(np.max(_op_norms_stack(vals)))

    @pytest.mark.parametrize("r", [3, 4])
    def test_any_scale(self, r):
        # the Frobenius squares underflow below about 2^-510 and overflow
        # above 2^+510; the prefilter reads them on a stack scaled to 1
        rng = np.random.default_rng(90 + r)
        for name, vals in op_norm_stacks(rng, r).items():
            want = _sup_op_norm(vals)
            for k in (-1000, -544, -540, -536, -531, -500, 500, 520, 1000):
                scaled = vals * 2.0**k
                got = _sup_op_norm(scaled)
                assert got == float(np.max(_op_norms_stack(scaled))), (name, k)
                assert got == pytest.approx(want * 2.0**k, rel=1e-13, abs=0.0), (name, k)

    def test_tiny_residual_of_a_three_by_three_factor(self):
        # the sup was 27% low or raised on a zero-size array near 2^-531
        rng = np.random.default_rng(89)
        q, _ = corpus.ridged_instance(rng, 3, 2)
        f = corpus.random_analytic1(rng, 3, 1)
        want = residual(q, f)
        for k in range(-544, -530):
            qs = MatrixLaurentPoly1(3, {i: c * 2.0**k for i, c in q.coeffs.items()})
            fs = MatrixAnalyticPoly1([c * 2.0 ** (k / 2) for c in f.coeffs])
            assert residual(qs, fs) == pytest.approx(want * 2.0**k, rel=1e-12)

    def test_rank_one_residual_solves_few_points(self, monkeypatch):
        # Q(z) = (3 + z + 1/z) u u*: Frobenius and operator norms agree at
        # every point, so only the points near z = 1 reach the solver.
        u = np.array([1.0, 2.0j, -0.5])
        uu = np.outer(u, u.conj())
        q = MatrixLaurentPoly1.from_causal(3, {0: 3 * uu, 1: uu})
        solved = []
        original = verify._op_norms_stack

        def spy(vals):
            solved.append(vals.size // 9)
            return original(vals)

        monkeypatch.setattr(verify, "_op_norms_stack", spy)
        got = residual(q, [], self.GRID)
        assert got == pytest.approx(5 * np.vdot(u, u).real, rel=1e-14)
        assert sum(solved) <= 2  # the Frobenius maximum, then the one point kept


def exact_eig_range(vals):
    # Extremes of the Hermitian part of each 2 x 2 matrix, in 40-digit
    # decimal arithmetic from the exact binary inputs.
    lo, hi = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for m in vals.reshape(-1, 2, 2):
            a, d = Decimal(m[0, 0].real), Decimal(m[1, 1].real)
            b = (m[0, 1], np.conj(m[1, 0]))
            br = (Decimal(b[0].real) + Decimal(b[1].real)) / 2
            bi = (Decimal(b[0].imag) + Decimal(b[1].imag)) / 2
            mid, rad = (a + d) / 2, (((a - d) / 2) ** 2 + br**2 + bi**2).sqrt()
            lo.append(float(mid - rad))
            hi.append(float(mid + rad))
    return np.array(lo).reshape(vals.shape[:-2]), np.array(hi).reshape(vals.shape[:-2])


def hermitian_2x2_stacks():
    rng = np.random.default_rng(81)
    n = 256

    def herm(a, d, b):
        out = np.empty((n, 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 1, 1], out[:, 0, 1], out[:, 1, 0] = a, d, b, np.conj(b)
        return out

    def cnormal(scale=1.0):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    # an anti-Hermitian part, which both the closed form and eigvalsh discard
    skew = 1e-6 * (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    skew -= np.conj(np.swapaxes(skew, -1, -2))
    return {
        "random": herm(rng.standard_normal(n), rng.standard_normal(n), cnormal()) + skew,
        "diagonal": herm(rng.standard_normal(n), rng.standard_normal(n), 0.0),
        "repeated": herm(c := rng.standard_normal(n), c, 0.0),
        "graded": herm(rng.uniform(1, 2, n), 1e-6 * rng.uniform(1, 2, n), cnormal(1e-12)),
        "indefinite": herm(rng.uniform(1, 2, n), -rng.uniform(1, 2, n), cnormal(0.5)),
    }


class TestClosedFormExtremes:
    @pytest.mark.parametrize("kind", list(hermitian_2x2_stacks()))
    def test_matches_exact_and_lapack_extremes(self, kind):
        vals = hermitian_2x2_stacks()[kind]
        lo, hi = _eig_range_stack(vals)
        xlo, xhi = exact_eig_range(vals)
        norm = np.maximum(np.abs(xlo), np.abs(xhi))
        assert np.all(np.abs(lo - xlo) <= 4 * EPS * norm)
        assert np.all(np.abs(hi - xhi) <= 4 * EPS * norm)
        assert np.all(np.abs(_op_norms_stack(vals) - norm) <= 4 * EPS * norm)
        # LAPACK itself is off the exact extremes by up to ~6 eps ||A|| on
        # random stacks, so the comparison with eigvalsh allows 8 eps.
        eigs = np.linalg.eigvalsh((vals + np.conj(np.swapaxes(vals, -1, -2))) / 2)
        assert np.all(np.abs(lo - eigs[:, 0]) <= 8 * EPS * norm)
        assert np.all(np.abs(hi - eigs[:, -1]) <= 8 * EPS * norm)
        lapack_norms = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
        assert np.all(np.abs(_op_norms_stack(vals) - lapack_norms) <= 8 * EPS * norm)

    def test_repeated_eigenvalue_is_exact(self):
        vals = hermitian_2x2_stacks()["repeated"]
        lo, hi = _eig_range_stack(vals)
        np.testing.assert_array_equal(lo, vals[:, 0, 0].real)
        np.testing.assert_array_equal(hi, vals[:, 0, 0].real)

    def test_a_power_of_two_scales_the_extremes_exactly(self):
        # Each term is halved before it is added, so at 2^1023 nothing
        # overflows (a warning is an error here) and grid_min_eig scales
        # bit for bit.
        coeffs = {0: np.diag([1.0, 0.9]), 1: np.array([[0.25, 0.1], [0.0, 0.2]])}
        s = 2.0**1023
        want = grid_min_eig(MatrixLaurentPoly1.from_causal(2, coeffs))
        got = grid_min_eig(MatrixLaurentPoly1.from_causal(2, {k: s * c for k, c in coeffs.items()}))
        assert (got.min_eig, got.max_eig) == (s * want.min_eig, s * want.max_eig)


def det_poly_reference(p):
    # det P at the roots of unity by complex powers, then the forward DFT
    deg = p.rows * p.degree
    g = int(np.ceil(np.log2(deg + 1)))
    return np.fft.fft(np.linalg.det(eval1_grid(p, circle_grid(g))))[: deg + 1] / (1 << g)


def reference_roots(p):
    # np.roots of the reference det P, its negligible top coefficients trimmed
    coeffs = det_poly_reference(p)
    keep = np.nonzero(np.abs(coeffs) > 1e-12 * np.max(np.abs(coeffs)))[0]
    return np.roots(coeffs[: keep[-1] + 1][::-1])


def pencil_zeros(p):
    # The finite eigenvalues alpha/beta of the block-companion pencil.
    alpha, beta = eig(*_companion_pencil(p), right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.abs(alpha)
    return alpha[finite] / beta[finite]


def assert_zeros_match(got, want, rtol):
    assert len(got) == len(want)
    for root in want:
        nearest = got[np.argmin(np.abs(got - root))]
        assert abs(nearest - root) <= rtol * max(abs(root), 1.0)


def seeded_draws(seed, shapes):
    # Five random complex polynomials with (r, m) = shapes(rng).
    rng = np.random.default_rng(seed)
    for _ in range(5):
        r, m = shapes(rng)
        yield MatrixAnalyticPoly1(
            [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(m + 1)]
        )


def random_shape(rng):
    return int(rng.integers(1, 4)), int(rng.integers(0, 4))


class TestDetPoly:
    # The zeros of det P, read from the block-companion pencil of outer_check.
    def test_constant_identity(self):
        # A constant has every zero at infinity (beta = 0), for any scale.
        for c in (np.eye(2), np.array([[1.0 + 2.0j, 0.5], [-1.0j, 3.0]]), 1e-9 * np.eye(3)):
            p = MatrixAnalyticPoly1([c])
            assert pencil_zeros(p).size == 0
            assert outer_check(p) == ("verified", None)

    def test_diagonal_product(self):
        # det = 2 + 2z: one finite zero at -1, one at infinity (singular P_1).
        p = MatrixAnalyticPoly1([np.diag([1.0, 2.0]), np.diag([1.0, 0.0])])
        np.testing.assert_allclose(pencil_zeros(p), [-1.0], atol=1e-12)
        assert outer_check(p).verdict == "verified"

    def test_unipotent(self):
        # det(I + zN) = 1 for nilpotent N: no finite zero.
        p = MatrixAnalyticPoly1([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert pencil_zeros(p).size == 0
        assert outer_check(p).verdict == "verified"

    def test_eval_consistency_random(self):
        # On the seeded draws of test_verdicts_of_the_seeded_polynomials_are_unchanged
        # the pencil's zeros are the roots of the reference det P, and P
        # evaluated at each of them is singular up to rounding.
        for p in [*seeded_draws(37, lambda rng: (2, 2)), *seeded_draws(23, random_shape)]:
            zeros = pencil_zeros(p)
            assert_zeros_match(zeros, reference_roots(p), 1e-8)
            for z in zeros:
                size = sum(abs(z) ** k * np.linalg.norm(c, 2) for k, c in enumerate(p.coeffs))
                assert np.linalg.svd(eval1(p, z), compute_uv=False)[-1] <= 1e-12 * size


class TestOuterCheck:
    def test_verified_root_outside(self):
        assert outer_check(scalar_analytic([2.0, 1.0])).verdict == "verified"

    def test_failed_with_witness(self):
        check = outer_check(scalar_analytic([1.0, 2.0]))
        assert check.verdict == "failed"
        assert check.witness == pytest.approx(-0.5)
        # P(z) = z I: every zero at the origin, A = 0 in the pencil
        for r in (1, 3):
            assert outer_check(MatrixAnalyticPoly1([np.zeros((r, r)), np.eye(r)])) == ("failed", 0)

    def test_inconclusive_on_degenerate_determinant(self):
        p = MatrixAnalyticPoly1([np.array([[1.0, 0.0], [0.0, 0.0]])])
        assert outer_check(p).verdict == "inconclusive"
        # det P = 0 identically: the zero polynomial, and P(z) = x(z) v* of
        # rank one at every z
        for m in (0, 1, 3):
            assert outer_check(MatrixAnalyticPoly1([np.zeros((2, 2))] * (m + 1))).verdict == (
                "inconclusive"
            )
        rng = np.random.default_rng(71)
        for r in (2, 3, 5):
            v = rng.standard_normal((1, r)) + 1j * rng.standard_normal((1, r))
            for m in range(4):
                p = MatrixAnalyticPoly1([rng.standard_normal((r, 1)) @ v for _ in range(m + 1)])
                assert outer_check(p) == ("inconclusive", None)

    def test_boundary_root_is_legitimate(self):
        assert outer_check(scalar_analytic([1.0, 1.0])).verdict == "verified"

    def test_gauge_invariance_of_verdict(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            p = MatrixAnalyticPoly1(
                [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
            )
            assert outer_check(p).verdict == outer_check(normalize_gauge(p)).verdict

    def test_verdicts_of_the_seeded_polynomials_are_unchanged(self):
        # Random polynomials from the seeds of test_gauge_invariance_of_verdict
        # and TestDetPoly.test_eval_consistency_random, with the verdicts they
        # had when det P was sampled by complex powers.
        cases = [
            (seeded_draws(37, lambda rng: (2, 2)), ["failed"] * 5),
            (seeded_draws(23, random_shape), ["failed", "verified", "failed", "verified", "failed"]),
        ]
        for ps, expected in cases:
            assert [outer_check(p).verdict for p in ps] == expected

    def test_singular_top_coefficient_matches_the_determinant_roots(self):
        # 3I + zT with a zero column of T: det P has degree below r, and the
        # pencil's zeros at infinity must not change the verdict.
        rng = np.random.default_rng(73)
        for size in (0.5, 5.0):
            for _ in range(3):
                t = size * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                t[:, int(rng.integers(3))] = 0.0
                p = MatrixAnalyticPoly1([3.0 * np.eye(3), t])
                roots = reference_roots(p)
                assert len(roots) <= 2
                inside = roots[np.abs(roots) < 1.0 - 1e-6]
                check = outer_check(p)
                assert check.verdict == ("failed" if inside.size else "verified")
                if inside.size:
                    assert check.witness == pytest.approx(inside[np.argmin(np.abs(inside))])

    @pytest.mark.parametrize("r", [2, 20, 40])
    def test_verdict_does_not_depend_on_scale(self, r):
        # det(sP) = s^r det P leaves the floating-point range at r = 40 for
        # s = 1e8; its zeros, and so the verdict, do not depend on s.
        rng = np.random.default_rng(79)
        for t_size in (0.5, 3.0):
            t = t_size * rng.standard_normal((r, r)) / np.sqrt(r)
            p = [2.0 * np.eye(r), t]
            verdicts = [outer_check(MatrixAnalyticPoly1([s * c for c in p])) for s in (1.0, 1e8, 1e-8)]
            assert verdicts[0].verdict != "inconclusive"
            assert [v.verdict for v in verdicts] == [verdicts[0].verdict] * 3

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            outer_check(MatrixAnalyticPoly1([np.ones((2, 3)), np.zeros((2, 3))]))


class TestDirectQZ:
    # outer_check calls LAPACK ggev itself; its alpha and beta must equal
    # scipy.linalg.eig's bit for bit.
    def test_matches_scipy_eig(self, monkeypatch):
        calls, ggev = [], verify._ggev

        def spy(a, b, *args, **kwargs):
            out = ggev(a, b, *args, **kwargs)
            calls.append((a, b, out))
            return out

        monkeypatch.setattr(verify, "_ggev", spy)
        rng = np.random.default_rng(83)
        v = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        singular_top = [3.0 * np.eye(3), rng.standard_normal((3, 3))]
        singular_top[1][:, 1] = 0.0
        pencils = [
            *seeded_draws(37, lambda rng: (2, 2)),
            *seeded_draws(23, random_shape),
            *seeded_draws(89, lambda rng: (int(rng.integers(4, 9)), int(rng.integers(1, 5)))),
            MatrixAnalyticPoly1(singular_top),  # singular B: zeros at infinity
            MatrixAnalyticPoly1([rng.standard_normal((3, 1)) @ v for _ in range(3)]),  # det P = 0
        ]
        for p in pencils:
            calls.clear()
            verdict = outer_check(p).verdict
            assert len(calls) == 2  # the workspace query, then the solve
            a, b, (alpha, beta, *_, info) = calls[-1]
            assert info == 0
            want_alpha, want_beta = eig(a, b, right=False, homogeneous_eigvals=True)
            np.testing.assert_array_equal(alpha, want_alpha)
            np.testing.assert_array_equal(beta, want_beta)
        assert verdict == "inconclusive"

    def test_failed_solve_raises(self, monkeypatch):
        ggev = verify._ggev
        monkeypatch.setattr(verify, "_ggev", lambda *a, **k: ggev(*a, **k)[:-1] + (3,))
        with pytest.raises(np.linalg.LinAlgError, match="info 3"):
            outer_check(scalar_analytic([2.0, 1.0]))


class TestFactorReportConsistency:
    def test_reported_residual_matches_recheck(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            q, _ = corpus.ridged_instance(rng, 2, 3)
            phat, rep = factor(q)
            again = residual(q, phat, GridSpec(9))
            assert again == pytest.approx(rep.residual_sup, rel=1e-9, abs=1e-12)
