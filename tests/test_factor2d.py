import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eig

from specfactor import corpus, factor1d, factor2d, verify
from specfactor.factor2d import (
    NotStrictlyPositiveError,
    StrictificationError,
    _offset_norms,
    cesaro_smooth,
    choose_truncation,
    estimate_delta,
    factor_cesaro,
    factor_strict,
    inverse_cesaro,
    lift_to_block,
    remainder_bound,
    unlift_factor,
)
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    adjoint_product_list2,
    eval2_grid,
)
from reference import laurent_stack, toeplitz_entries


def scalar_laurent2(causal):
    return MatrixLaurentPoly2.from_causal(1, {idx: [[v]] for idx, v in causal.items()})


def plane(c0):
    return scalar_laurent2({(0, 0): c0, (1, 0): 1.0, (0, 1): 1.0})


Q_PLANE = scalar_laurent2({(0, 0): 5.0, (1, 0): 1.0, (0, 1): 1.0})
Q_NONSTRICT = scalar_laurent2({(0, 0): 4.0, (1, 0): 1.0, (0, 1): 1.0})


class TestCesaroWeights:
    def test_identity_when_no_second_variable(self):
        q = scalar_laurent2({(0, 0): 3.0, (1, 0): 1.0})
        out = cesaro_smooth(q, 0)
        assert out.coeff(1, 0)[0, 0] == pytest.approx(1.0)

    def test_single_weight(self):
        q = scalar_laurent2({(0, 0): 0.0, (0, 1): 1.0})
        out = cesaro_smooth(q, 1)
        assert out.coeff(0, 1)[0, 0] == pytest.approx(0.5)

    def test_by_hand_weights(self):
        out = cesaro_smooth(Q_PLANE, 4)
        assert out.coeff(0, 0)[0, 0] == pytest.approx(5.0)
        assert out.coeff(1, 0)[0, 0] == pytest.approx(1.0)
        assert out.coeff(0, 1)[0, 0] == pytest.approx(0.8)

    def test_inverse_single_weight(self):
        q = scalar_laurent2({(0, 0): 0.0, (0, 1): 1.0})
        out = inverse_cesaro(q, 1)
        assert out.coeff(0, 1)[0, 0] == pytest.approx(2.0)

    def test_rejects_small_truncation(self):
        q = scalar_laurent2({(0, 0): 1.0, (0, 2): 0.25})
        with pytest.raises(ValueError, match="N >= m2"):
            cesaro_smooth(q, 1)

    def test_cancellation_is_ulp_exact(self):
        # the weights cancel algebraically; in binary64 the round trip is
        # correct to the last unit in each coefficient entry
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = corpus.sos_instance2(rng, 2, 2, 2)
            for n in (q.deg2, q.deg2 + 3):
                back = cesaro_smooth(inverse_cesaro(q, n), n)
                for idx, c in q.coeffs.items():
                    np.testing.assert_allclose(back.coeff(*idx), c, rtol=1e-15, atol=0)


def reweight_per_block(q, n, inverse):
    # cesaro_smooth / inverse_cesaro as they were built before they read
    # q.dense: each listed block scaled by its column weight, and the dict
    # sent back through the dict constructor.
    coeffs = {}
    for (j, k), c in q.coeffs.items():
        w = (n + 1 - abs(k)) / (n + 1)
        coeffs[(j, k)] = c / w if inverse else c * w
    return MatrixLaurentPoly2(q.size, coeffs)


def assert_same_laurent2(a, b):
    assert (a.size, a.deg1, a.deg2, a.origin) == (b.size, b.deg1, b.deg2, b.origin)
    assert a.scale == b.scale
    assert a.dense.tobytes() == b.dense.tobytes()  # signed zeros included
    assert list(a.coeffs) == list(b.coeffs)
    for i, c in a.coeffs.items():
        assert c.tobytes() == b.coeffs[i].tobytes()


def z2_free(seed):
    q1, _ = corpus.ridged_instance(np.random.default_rng(seed), 2, 2)
    return MatrixLaurentPoly2(2, {(j, 0): c for j, c in q1.coeffs.items()})


REWEIGHT_INPUTS = [
    pytest.param(lambda: corpus.sos_instance2(np.random.default_rng(80), 1, 2, 1), id="sos-r1"),
    pytest.param(lambda: corpus.sos_instance2(np.random.default_rng(81), 2, 1, 2), id="sos-r2"),
    pytest.param(lambda: corpus.sos_instance2(np.random.default_rng(82), 3, 2, 3), id="sos-r3"),
    pytest.param(lambda: plane(4.2), id="plane"),
    pytest.param(lambda: z2_free(83), id="z2-free"),
]


class TestReweightFromTheBox:
    """cesaro_smooth and inverse_cesaro scale q.dense by the column weights
    in one array operation; these pin them to the per-block dict walk."""

    @pytest.mark.parametrize("make", REWEIGHT_INPUTS)
    @pytest.mark.parametrize("extra", [0, 3, 17])
    def test_bit_equal_to_the_per_block_walk(self, make, extra):
        q = make()
        n = q.deg2 + extra
        assert_same_laurent2(cesaro_smooth(q, n), reweight_per_block(q, n, False))
        assert_same_laurent2(inverse_cesaro(q, n), reweight_per_block(q, n, True))

    def test_a_block_scaled_to_zero_is_dropped_and_trimmed(self):
        # The smallest subnormal times the weight 1/2 rounds to zero: the
        # pair (1, 1) drops out, and with it the column k = +-1 of the box.
        q = scalar_laurent2({(0, 0): 2.0, (2, 0): 0.5, (1, 1): 5e-324})
        out = cesaro_smooth(q, 1)
        assert_same_laurent2(out, reweight_per_block(q, 1, False))
        assert (out.deg1, out.deg2) == (2, 0) and list(out.coeffs) == [(-2, 0), (0, 0), (2, 0)]
        # an inner pair scaled to zero keeps the degrees
        q = scalar_laurent2({(0, 0): 2.0, (2, 0): 0.5, (1, 1): 5e-324, (0, 1): 0.5})
        out = cesaro_smooth(q, 1)
        assert_same_laurent2(out, reweight_per_block(q, 1, False))
        assert (out.deg1, out.deg2) == (2, 1) and not out.coeff(1, 1).any()
        for i in ((1, 1), (-1, -1)):  # the dropped pair holds +0.0
            assert not np.signbit(out.coeff(*i).view(float)).any()

    @pytest.mark.parametrize("make", REWEIGHT_INPUTS[:4])
    def test_factor_cesaro_unchanged(self, make, monkeypatch):
        q = make()
        n = q.deg2 + 1
        factors, report = factor_cesaro(q, n)
        monkeypatch.setattr(factor2d, "lift_to_block", lift_per_row)
        monkeypatch.setattr(
            factor2d, "cesaro_smooth", lambda q, n: reweight_per_block(q, n, False)
        )
        ref_factors, ref_report = factor_cesaro(q, n)
        assert report.to_json() == ref_report.to_json()
        assert len(factors) == len(ref_factors)
        for f, g in zip(factors, ref_factors):
            assert f.dense.tobytes() == g.dense.tobytes()
            assert list(f.coeffs) == list(g.coeffs)

    def test_factor_strict_unchanged(self, monkeypatch):
        q = corpus.sos_instance2(np.random.default_rng(84), 2, 1, 1)
        q = MatrixLaurentPoly2(2, {**q.coeffs, (0, 0): q.coeff(0, 0) + 0.6 * q.scale * np.eye(2)})
        factors, report, plan = factor_strict(q)
        monkeypatch.setattr(factor2d, "lift_to_block", lift_per_row)
        monkeypatch.setattr(
            factor2d, "inverse_cesaro", lambda q, n: reweight_per_block(q, n, True)
        )
        ref_factors, ref_report, ref_plan = factor_strict(q)
        assert (report.to_json(), plan.to_json()) == (ref_report.to_json(), ref_plan.to_json())
        for f, g in zip(factors, ref_factors, strict=True):
            assert f.dense.tobytes() == g.dense.tobytes()


class TestRemainderBound:
    def test_zero_without_second_variable(self):
        q = scalar_laurent2({(0, 0): 3.0, (1, 0): 1.0})
        assert remainder_bound(q, 5) == 0.0

    def test_by_hand(self):
        for n in (2, 4, 8):
            assert remainder_bound(Q_PLANE, n) == pytest.approx(2.0 / n)

    def test_homogeneous_scaling(self):
        q3 = scalar_laurent2({(0, 0): 15.0, (1, 0): 3.0, (0, 1): 3.0})
        assert remainder_bound(q3, 4) == pytest.approx(3.0 * remainder_bound(Q_PLANE, 4))

    def test_sound_on_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            q = corpus.sos_instance2(rng, 2, 1, 2)
            n = q.deg2 + 1
            widened = inverse_cesaro(q, n)
            bound = remainder_bound(q, n)
            grid = verify.GridSpec(7, 7)  # 128 x 128
            zs = grid.points1()
            worst = 0.0
            from specfactor.poly import eval2_grid

            diff = eval2_grid(widened, zs, zs) - eval2_grid(q, zs, zs)
            herm = (diff + np.conj(np.swapaxes(diff, -1, -2))) / 2
            eigs = np.linalg.eigvalsh(herm)
            worst = float(np.max(np.abs(eigs)))
            assert worst <= bound + 1e-9 * q.scale


class TestChooseTruncation:
    def test_example_with_third_margin(self):
        plan = choose_truncation(Q_PLANE, 1.0, margin=1.0 / 3.0)
        assert plan.n == 4
        assert plan.bound_s == pytest.approx(0.5)

    def test_degenerate_second_variable(self):
        q = scalar_laurent2({(0, 0): 3.0, (1, 0): 1.0})
        plan = choose_truncation(q, 1.0, margin=0.5)
        assert plan.n == 0
        assert plan.bound_s == 0.0

    def test_larger_delta_never_increases_n(self):
        for margin in (0.25, 1.0 / 3.0, 0.5):
            n_small = choose_truncation(Q_PLANE, 0.7, margin=margin).n
            n_large = choose_truncation(Q_PLANE, 1.4, margin=margin).n
            assert n_large <= n_small

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError, match="positive"):
            choose_truncation(Q_PLANE, 0.0)

    def test_operator_norms_computed_once(self, monkeypatch):
        q = scalar_laurent2({(0, 0): 4.4, (1, 0): 1.0, (0, 1): 1.0})
        delta = estimate_delta(q, verify.GridSpec(9, 9))
        expected = choose_truncation(q, delta)
        calls = []
        norm = np.linalg.norm

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return norm(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        plan = choose_truncation(q, delta)
        assert plan.n == 8
        # one batched call over every k != 0 coefficient, not one per N
        assert calls == [(sum(1 for _, k in q.coeffs if k != 0), 1, 1)]
        assert (plan.n, plan.bound_s) == (expected.n, expected.bound_s)
        assert plan.bound_s == remainder_bound(q, plan.n)


class TestOffsetNorms:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_batched_norms_match_each_matrix(self, r):
        rng = np.random.default_rng(70 + r)
        for m1, m2 in ((1, 1), (2, 3), (0, 2)):
            q = corpus.sos_instance2(rng, r, m1, m2)
            offsets = [(abs(k), c) for (_, k), c in sorted(q.coeffs.items()) if k != 0]
            expected = [(k, float(np.linalg.norm(c, 2))) for k, c in offsets]
            norms = _offset_norms(q)
            assert norms == expected  # bit for bit
            assert all(type(norm) is float for _, norm in norms)

    def test_no_second_variable(self):
        assert _offset_norms(scalar_laurent2({(0, 0): 3.0, (1, 0): 1.0})) == []


def linear_scan(q, delta, margin):
    # Reference for choose_truncation: the first N >= m2 whose bound fits.
    n, norms = q.deg2, _offset_norms(q)
    while remainder_bound(q, n, norms) >= delta * (1.0 - margin) * (1.0 - 1e-12):
        n += 1
    return n, remainder_bound(q, n, norms)


class TestChooseTruncationSearch:
    MARGINS = (0.25, 1.0 / 3.0, 0.5)

    @pytest.mark.parametrize("c0", [5.0, 4.4, 4.2, 4.1, 4.05, 4.01])
    def test_planes_match_the_linear_scan(self, c0):
        q = plane(c0)
        delta = estimate_delta(q, verify.GridSpec(9, 9))
        for margin in self.MARGINS:
            plan = choose_truncation(q, delta, margin)
            assert (plan.n, plan.bound_s) == linear_scan(q, delta, margin)

    def test_random_sums_of_squares_match_the_linear_scan(self):
        rng = np.random.default_rng(61)
        for r, m1, m2 in ((1, 1, 1), (2, 1, 2), (2, 2, 3), (1, 0, 4)):
            q = corpus.sos_instance2(rng, r, m1, m2)
            for delta in q.scale * np.array([0.3, 0.05, 0.004]):
                for margin in self.MARGINS:
                    plan = choose_truncation(q, delta, margin)
                    assert (plan.n, plan.bound_s) == linear_scan(q, delta, margin)

    @staticmethod
    def counted_bounds(monkeypatch):
        seen, bound = [], factor2d.remainder_bound
        monkeypatch.setattr(
            factor2d, "remainder_bound", lambda q, n, norms=None: seen.append(n) or bound(q, n, norms)
        )
        return seen

    def test_at_most_m2_plus_three_bounds(self, monkeypatch):
        # The bound at N lies in [s/(N+1), s/(N+1-m2)], s = sum |k| ||Q_jk||,
        # so at most m2 + 3 bounds bracket the first N that fits, which the
        # linear scan finds one N at a time.
        seen = self.counted_bounds(monkeypatch)
        rng = np.random.default_rng(62)
        for r, m1, m2 in ((1, 1, 3), (1, 1, 1), (2, 2, 2), (1, 0, 5)):
            q = corpus.sos_instance2(rng, r, m1, m2)
            for delta in q.scale * np.array([0.3, 0.01, 1e-4]):
                seen.clear()
                plan = choose_truncation(q, delta)
                assert 1 <= len(seen) <= q.deg2 + 3 and seen[-1] == plan.n
                assert seen == list(range(seen[0], plan.n + 1))
                assert (plan.n, plan.bound_s) == linear_scan(q, delta, factor2d.DEFAULT_MARGIN)

    def test_an_underflowing_budget_is_degenerate_at_once(self, monkeypatch):
        # delta = 5e-324 leaves a subnormal budget: s / budget overflows, the
        # scan starts at the cap and raises after one bound, not 100 000.
        seen = self.counted_bounds(monkeypatch)
        q = corpus.sos_instance2(np.random.default_rng(63), 1, 1, 3)
        with pytest.raises(ValueError, match="degenerate delta"):
            choose_truncation(q, 5e-324)
        assert seen == [factor2d.TRUNCATION_CAP]

    def test_cap_is_kept(self):
        with pytest.raises(ValueError, match="degenerate delta"):
            choose_truncation(Q_PLANE, 1e-9)


class TestEstimateDelta:
    def test_sound_on_random_sums_of_squares(self):
        # the bound holds on the whole torus: below the minimum on a dense
        # grid offset from every sampling grid
        rng = np.random.default_rng(61)
        offset = np.exp(2j * np.pi * 0.3183 / 512)
        zs = verify.GridSpec(9).points1() * offset
        for _ in range(12):
            r = int(rng.integers(1, 4))
            m1, m2 = (int(d) for d in rng.integers(1, 4, size=2))
            base = corpus.sos_instance2(rng, r, m1, m2)
            coeffs = dict(base.coeffs)
            ridge = rng.uniform(0.005, 0.05) * base.scale
            coeffs[(0, 0)] = coeffs[(0, 0)] + ridge * np.eye(r)
            q = MatrixLaurentPoly2(r, coeffs)
            bound = estimate_delta(q, verify.GridSpec(9, 9))
            dense = np.linalg.eigvalsh(eval2_grid(q, zs, zs))[..., 0].min()
            assert 0.0 < bound <= dense

    def test_sound_on_planes(self):
        for c0 in (4.005, 4.01, 4.05, 4.1, 4.2, 4.4, 5.0, 8.0):
            bound = estimate_delta(plane(c0), verify.GridSpec(9, 9))
            assert 0.0 < bound <= c0 - 4.0

    def test_sampling_constant_is_attained(self):
        # cos(d t + pi d / M) peaks at cos(pi d / M) on the M grid points
        # and at 1 between them, so sec(pi d / M) cannot be lowered ...
        for d, big_m in ((1, 8), (1, 64), (2, 16), (4, 64), (8, 64)):
            ts = 2 * np.pi * np.arange(big_m) / big_m
            on_grid = np.max(np.abs(np.cos(d * ts + np.pi * d / big_m)))
            assert 1.0 / on_grid == pytest.approx(1.0 / np.cos(np.pi * d / big_m), rel=1e-14)
        # ... and the bound is exact for c0 + cos(d t1 + pi d / 64), sampled
        # on 64 points per axis
        for d in (1, 2, 4, 8):
            phase = np.exp(1j * np.pi * d / 64)
            q = MatrixLaurentPoly2.from_causal(
                1, {(0, 0): [[10.0]], (d, 0): [[phase / 2]]}
            )
            assert estimate_delta(q, verify.GridSpec(9, 9)) == pytest.approx(9.0, abs=1e-12)

    def test_near_boundary_planes(self):
        delta = estimate_delta(plane(4.1), verify.GridSpec(9, 9))
        assert delta >= 0.09
        assert choose_truncation(plane(4.1), delta).n <= 34
        delta = estimate_delta(plane(4.01), verify.GridSpec(9, 9))
        assert 0.0 < delta <= 0.01

    def test_refines_only_within_the_given_grid(self, monkeypatch):
        grids = []
        grid_min_eig = verify.grid_min_eig

        def recorded(q, grid):
            grids.append((grid.g1, grid.g2))
            return grid_min_eig(q, grid)

        monkeypatch.setattr(verify, "grid_min_eig", recorded)
        estimate_delta(plane(5.0), verify.GridSpec(9, 9))
        assert grids == [(6, 6)]
        grids.clear()
        estimate_delta(plane(4.01), verify.GridSpec(9, 9))
        assert grids == [(6, 6), (7, 7), (8, 8)]
        grids.clear()
        estimate_delta(plane(4.01), verify.GridSpec(7, 5))
        assert grids == [(6, 5), (7, 5)]
        grids.clear()
        q = scalar_laurent2({(0, 0): 9.0, (20, 0): 1.0, (0, 1): 1.0})
        estimate_delta(q, verify.GridSpec(9, 9))
        assert grids[0] == (7, 6)  # 128 >= 4 * 20
        # a grid minimum <= 0 is returned from the first grid
        grids.clear()
        assert estimate_delta(plane(3.0), verify.GridSpec(9, 9)) == pytest.approx(-1.0)
        assert grids == [(6, 6)]

    def test_rejects_grid_too_coarse_for_degree(self):
        q = scalar_laurent2({(0, 0): 9.0, (4, 0): 1.0, (0, 1): 1.0})
        with pytest.raises(ValueError, match="more than 8"):
            estimate_delta(q, verify.GridSpec(3, 9))


def lift_per_row(q, n):
    # lift_to_block as it was built before it read q.dense: one laurent_stack
    # of the row q.coeff(j, .) per first-variable index j, all-zero rows but
    # j = 0 left out.
    idx = np.arange(q.size * (n + 1))
    coeffs = {}
    for j in range(-q.deg1, q.deg1 + 1):
        stack = laurent_stack(lambda k: q.coeff(j, k), q.deg2)
        if stack.any() or j == 0:
            coeffs[j] = toeplitz_entries(stack / (n + 1), idx[:, None], idx)
    return MatrixLaurentPoly1(q.size * (n + 1), coeffs)


def assert_same_laurent1(a, b):
    assert (a.size, a.degree, a.scale) == (b.size, b.degree, b.scale)
    assert list(a.coeffs) == list(b.coeffs)
    for k, c in a.coeffs.items():
        assert c.tobytes() == b.coeffs[k].tobytes()


class TestLiftToBlock:
    @pytest.mark.parametrize(
        "seed, r, m1, m2, n", [(70, 1, 2, 1, 3), (71, 2, 1, 2, 2), (72, 3, 2, 2, 5)]
    )
    def test_bit_equal_to_the_per_row_lift(self, seed, r, m1, m2, n):
        q = corpus.sos_instance2(np.random.default_rng(seed), r, m1, m2)
        assert_same_laurent1(lift_to_block(q, n), lift_per_row(q, n))

    @pytest.mark.parametrize("r, n", [(1, 2), (2, 4)])
    def test_bit_equal_with_all_zero_inner_rows(self, r, n):
        # Factors in z1^2 only: Q has rows j in {-2, 0, 2}, rows -1 and 1 zero.
        rng = np.random.default_rng(73 + r)
        blocks = [(j, k) for j in (0, 2) for k in (0, 1)]
        fs = [
            MatrixAnalyticPoly2(r, r, {i: corpus.disk_uniform(rng, (r, r)) for i in blocks})
            for _ in range(2)
        ]
        q = adjoint_product_list2(fs)
        assert q.deg1 == 2 and not q.coeff(1, 0).any() and not q.dense[1].any()
        psi = lift_to_block(q, n)
        assert_same_laurent1(psi, lift_per_row(q, n))
        assert not psi.coeff(1).any() and psi.coeff(2).any()

    def test_constant_scalar(self):
        q = scalar_laurent2({(0, 0): 3.0})
        psi = lift_to_block(q, 1)
        np.testing.assert_allclose(psi.coeff(0), 1.5 * np.eye(2), atol=1e-14)

    def test_second_variable_becomes_offdiagonal(self):
        q = scalar_laurent2({(0, 0): 0.0, (0, 1): 1.0})
        psi = lift_to_block(q, 1)
        np.testing.assert_allclose(
            psi.coeff(0), np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-14
        )

    def test_first_variable_passthrough(self):
        q = scalar_laurent2({(0, 0): 0.0, (1, 0): 1.0})
        psi = lift_to_block(q, 0)
        assert psi.size == 1
        assert psi.coeff(1)[0, 0] == pytest.approx(1.0)
        assert psi.coeff(-1)[0, 0] == pytest.approx(1.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(10)
        q = corpus.sos_instance2(rng, 2, 2, 1)
        psi = lift_to_block(q, 3)
        for k, c in psi.coeffs.items():
            np.testing.assert_array_equal(psi.coeff(-k), c.conj().T)

    @pytest.mark.parametrize("n", [2, 5])
    def test_block_layout(self, n):
        # Block (p, s) of coefficient j is Q_{j, p-s} / (N+1), zero when
        # |p - s| > m2 = 2.
        q = corpus.sos_instance2(np.random.default_rng(n), 2, 1, 2)
        psi = lift_to_block(q, n)
        r = q.size
        for j in range(-q.deg1, q.deg1 + 1):
            for p in range(n + 1):
                for s in range(n + 1):
                    blk = psi.coeff(j)[p * r : (p + 1) * r, s * r : (s + 1) * r]
                    assert np.array_equal(blk, q.coeff(j, p - s) / (n + 1))


class TestUnliftFactor:
    def test_trivial_when_n_zero(self):
        phi = MatrixAnalyticPoly1([np.array([[2.0]]), np.array([[1.0]])])
        (f,) = unlift_factor(phi, 1, 0)
        assert f.coeff(0, 0)[0, 0] == pytest.approx(2.0)
        assert f.coeff(1, 0)[0, 0] == pytest.approx(1.0)

    def test_column_orientation(self):
        # left block column carries the top exponent of the second variable
        phi = MatrixAnalyticPoly1([np.array([[1.0, 2.0], [3.0, 4.0]])])
        f0, f1 = unlift_factor(phi, 1, 1)
        assert f0.coeff(0, 1)[0, 0] == pytest.approx(1.0)
        assert f0.coeff(0, 0)[0, 0] == pytest.approx(2.0)
        assert f1.coeff(0, 1)[0, 0] == pytest.approx(3.0)
        assert f1.coeff(0, 0)[0, 0] == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        phi = MatrixAnalyticPoly1([np.eye(3)])
        with pytest.raises(ValueError, match="shape"):
            unlift_factor(phi, 2, 1)

    @pytest.mark.parametrize("r, n", [(1, 4), (2, 3), (3, 2)])
    def test_restacking_reproduces_the_lifted_factor(self, r, n):
        q = corpus.sos_instance2(np.random.default_rng(40 + r), r, 2, 1)
        phi, _ = factor1d.factor(lift_to_block(q, n))
        fs = unlift_factor(phi, r, n)
        assert len(fs) == n + 1
        for j, cj in enumerate(phi.coeffs):
            restacked = np.block(
                [[fs[ell].coeff(j, n - pos) for pos in range(n + 1)] for ell in range(n + 1)]
            )
            np.testing.assert_array_equal(restacked, cj)

    def test_zero_row_block_gives_an_empty_factor(self):
        rng = np.random.default_rng(45)
        coeffs = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(2)]
        for c in coeffs:
            c[2:4] = 0.0
        coeffs[1][:, 4:] = 0.0  # and one zero block column: no (1, 0) keys
        f0, f1, f2 = unlift_factor(MatrixAnalyticPoly1(coeffs), 2, 2)
        assert f1.coeffs == {} and f1.scale == 0.0
        assert sorted(f0.coeffs) == sorted(f2.coeffs) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]
        np.testing.assert_array_equal(f2.coeff(1, 2), coeffs[1][4:, :2])

    def test_blocks_listed_by_j_then_column(self):
        # index order: j, then k = N - column ascending, the order the
        # benchmark's residual sums in
        rng = np.random.default_rng(46)
        coeffs = [rng.standard_normal((3, 3)) + 1.0 for _ in range(2)]
        coeffs[1][0, 1] = 0.0
        f0, f1, _ = unlift_factor(MatrixAnalyticPoly1(coeffs), 1, 2)
        assert list(f0.coeffs) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)]
        assert list(f1.coeffs) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def lifted_factor(self, c0):
        q = plane(c0)
        plan = choose_truncation(q, estimate_delta(q, verify.GridSpec(9, 9)))
        psi = lift_to_block(inverse_cesaro(q, plan.n), plan.n)
        phi, _ = factor1d.factor(psi, grid=verify.GridSpec(6), _skip_residual=True)
        return phi, plan.n

    def test_factors_are_views_of_one_buffer(self):
        phi, n = self.lifted_factor(4.2)
        fs = unlift_factor(phi, 1, n)
        buffer = fs[0].dense.base
        assert buffer.nbytes == np.array(phi.coeffs).nbytes
        assert all(np.shares_memory(f.dense, buffer) for f in fs)
        assert all(np.shares_memory(c, buffer) for f in fs for c in f.coeffs.values())

    def test_traced_peak_within_two_stacked_copies(self):
        phi, n = self.lifted_factor(4.2)
        one = np.array(phi.coeffs).nbytes
        tracemalloc.start()
        try:
            unlift_factor(phi, 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * one


class TestFactorCesaro:
    def test_constant(self):
        q = scalar_laurent2({(0, 0): 4.0})
        factors, rep = factor_cesaro(q, 0)
        assert len(factors) == 1
        assert factors[0].coeff(0, 0)[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_reduces_to_one_variable(self):
        # boundary zero at z1 = -1: completes in the gap-dominated
        # degraded mode, so coefficients are accurate to the reported gap
        q = scalar_laurent2({(0, 0): 2.0, (1, 0): 1.0})
        factors, rep = factor_cesaro(q, 0)
        assert len(factors) == 1
        f = factors[0]
        tol = max(10 * rep.gap, 1e-6)
        assert abs(f.coeff(0, 0)[0, 0] - 1.0) <= tol
        assert abs(f.coeff(1, 0)[0, 0] - 1.0) <= tol
        assert rep.residual_sup <= tol

    def test_product_instance(self):
        # (2 + z1 + z1^-1)(2 + z2 + z2^-1), smoothed at N = 2
        q = scalar_laurent2(
            {
                (0, 0): 4.0,
                (1, 0): 2.0,
                (0, 1): 2.0,
                (1, 1): 1.0,
                (1, -1): 1.0,
            }
        )
        factors, rep = factor_cesaro(q, 2)
        target = cesaro_smooth(q, 2)
        resid = verify.residual(target, factors, verify.GridSpec(6, 6))
        assert resid <= 1e-6 * q.scale
        assert len(factors) <= 3
        assert all(f.deg1 <= q.deg1 for f in factors)

    def test_random_sums_of_squares(self):
        rng = np.random.default_rng(45)
        for _ in range(3):
            q = corpus.sos_instance2(rng, 2, 2, 2)
            for n in (q.deg2, q.deg2 + 2):
                factors, rep = factor_cesaro(q, n)
                target = cesaro_smooth(q, n)
                resid = verify.residual(target, factors, verify.GridSpec(6, 6))
                assert resid <= 1e-6 * q.scale
                assert len(factors) <= n + 1
                assert all(f.deg1 <= q.deg1 for f in factors)

    def test_rejects_negative(self):
        q = scalar_laurent2({(0, 0): 0.0, (1, 0): 1.0})
        from specfactor.factor1d import NotNonnegativeError

        with pytest.raises(NotNonnegativeError):
            factor_cesaro(q, 2)


def _lift_spy(monkeypatch):
    """The N of every lift factor2d builds, in order."""
    built, lift = [], factor2d.lift_to_block
    monkeypatch.setattr(factor2d, "lift_to_block", lambda q, n: built.append(n) or lift(q, n))
    return built


class TestFactorStrict:
    def test_constant(self):
        q = scalar_laurent2({(0, 0): 2.0})
        factors, rep, plan = factor_strict(q)
        assert plan.n == 0
        assert len(factors) == 1
        assert factors[0].coeff(0, 0)[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_plane_instance_end_to_end(self):
        factors, rep, plan = factor_strict(Q_PLANE)
        assert plan.n == 4
        assert len(factors) <= 5
        assert rep.residual_sup <= 1e-6 * Q_PLANE.scale
        assert all(f.deg1 <= 1 for f in factors)

    def test_rejects_nonstrict(self):
        with pytest.raises(NotStrictlyPositiveError, match="not strictly positive"):
            factor_strict(Q_NONSTRICT)

    def test_delta_override(self):
        factors, rep, plan = factor_strict(Q_PLANE, delta=1.0)
        assert plan.delta_est == pytest.approx(1.0)
        assert rep.residual_sup <= 1e-6 * Q_PLANE.scale

    def test_degraded_reason_from_the_lifted_factorization(self):
        # The lift of plane(4.2) does not converge by the block cap N = 8:
        # the report keeps the lifted call's reason, as factor1d.factor does.
        factors, rep, plan = factor_strict(plane(4.2), n_max=8)
        assert not rep.converged
        assert "block cap N = 8" in rep.degraded_reason
        assert "block cap" not in str(rep.to_json())

    def test_lifted_plane_stays_converged(self):
        # The 2-D residual is held to factor1d.BACKWARD_TOL like a 1-D one.
        q = plane(4.2)
        _, rep, _ = factor_strict(q)
        assert rep.converged and rep.degraded_reason == ""
        assert rep.residual_sup <= factor1d.BACKWARD_TOL * q.scale

    def test_a_large_2d_residual_degrades_the_report(self, monkeypatch):
        q = plane(4.2)
        monkeypatch.setattr(verify, "residual", lambda target, factors, grid: 2e-8 * q.scale)
        _, rep, _ = factor_strict(q)
        assert not rep.converged
        assert rep.degraded_reason == f"residual {2e-8 * q.scale:.3e} above 1e-08 * scale"

    @pytest.mark.parametrize("c0", [4.2, 4.1])
    def test_lifted_planes_are_outer_verified(self, c0, monkeypatch):
        # The lifted factors (size 2: N = 1 already factors) are well
        # conditioned, with every zero of det Phi outside the disc of
        # radius 1.1.
        lifted, check = [], verify.outer_check

        def spy(p, **kw):
            lifted.append(p)
            return check(p, **kw)

        monkeypatch.setattr(verify, "outer_check", spy)
        factors, rep, plan = factor_strict(plane(c0))
        assert rep.outer_verdict == "verified"
        (phi,) = lifted
        assert phi.rows == rep.tolerances["lift_n"] + 1
        alpha, beta = eig(*verify._companion_pencil(phi), right=False, homogeneous_eigvals=True)
        assert np.all(np.abs(alpha) > 1.1 * np.abs(beta))

    def test_lift_over_budget_is_refused_before_it_is_built(self, monkeypatch):
        # One byte below the smallest trial's price (N = 1, size 2) nothing
        # is built; at that price N = 1 is built and factors.
        built = _lift_spy(monkeypatch)
        q = plane(4.2)
        need = factor1d.limit_bytes((2, 1), 1, 4)  # n0 = 2(m1 + 1)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        with pytest.raises(factor1d.SchurConvergenceError, match="over the memory budget") as info:
            factor_strict(q)
        assert built == []
        assert f"{need:.3e} B" in str(info.value)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need)
        factors, rep, plan = factor_strict(q)
        assert built == [1] == [rep.tolerances["lift_n"]] and plan.n == 16

    def test_a_refused_trial_stops_the_scan(self, monkeypatch):
        # n_max = 4 leaves the N = 1 trial unconverged at the block cap; a
        # budget of exactly its price refuses N = 2, and so every later
        # lift: that raises, and N = 1's degraded report is not returned.
        built = _lift_spy(monkeypatch)
        need = factor1d.limit_bytes((2, 1), 1, 2)  # the clamped start n0 = 2
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need)
        with pytest.raises(factor1d.SchurConvergenceError, match="lift of size 3 not built"):
            factor_strict(plane(4.2), n_max=4)
        assert built == [1]

    def test_lift_preflight_uses_the_clamped_start(self, monkeypatch):
        # n_max = 4 clamps n0 = 4 to 2 in schur_limit; the preflight must
        # price that start, not the unclamped one, and build every lift:
        # each trial stops at the cap, unconverged, so the scan goes on.
        built = _lift_spy(monkeypatch)
        q = plane(4.2)
        size = choose_truncation(q, estimate_delta(q, verify.GridSpec(9, 9))).n + 1
        clamped, unclamped = (factor1d.limit_bytes((size, 1), 1, n) for n in (2, 4))
        assert clamped < unclamped
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", (clamped + unclamped) // 2)
        factors, rep, plan = factor_strict(q, n_max=4)
        assert built == [1, 2, 4, 8, plan.n] and plan.n == size - 1 == 16
        # the doubling guard checks the same price, so only the cap stops it
        assert rep.n_used == 4 and not rep.converged
        assert "block cap N = 4" in rep.degraded_reason

    def test_one_refusal_for_one_variable_and_lifts(self, monkeypatch):
        # A ridged r = 2, m = 1 input and plane(4.2)'s N = 1 lift (size 2,
        # m1 = 1) share one price from n0 = 4 and one check: one byte below
        # it both are refused with that price before the limit or the lift
        # is built; at the price both converge.
        q, _ = corpus.ridged_instance(np.random.default_rng(3), 2, 1)
        need = factor1d.limit_bytes((2, 1), 1, 4)
        built, lift = [], factor2d.lift_to_block
        for name in ("truncated_schur", "block_toeplitz", "_join_workspace"):
            monkeypatch.setattr(factor1d, name, lambda *args, name=name: built.append(name))
        monkeypatch.setattr(factor2d, "lift_to_block", lambda *args: built.append("lift"))
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        prices = []
        for run in (lambda: factor1d.factor(q), lambda: factor_strict(plane(4.2))):
            with pytest.raises(factor1d.SchurConvergenceError) as info:
                run()
            assert built == []
            prices.append(str(info.value).split(": ", 1)[1])
        assert prices[0] == prices[1]
        assert prices[0].startswith(f"its Schur limit from N = 4 would need about {need:.3e} B")
        monkeypatch.undo()
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need)
        assert factor1d.factor(q)[1].converged
        _, rep, _ = factor_strict(plane(4.2))
        assert rep.converged and rep.tolerances["lift_n"] == 1

    def test_near_singular_plane_factors_at_the_smallest_lift(self):
        # plane(4.001) certifies N = 3532, a lift over the memory budget,
        # but its lift at N = 1 has least eigenvalue 0.001 and factors Q.
        q = plane(4.001)
        factors, rep, plan = factor_strict(q)
        assert (plan.n, rep.tolerances["lift_n"], len(factors)) == (3532, 1, 2)
        assert rep.converged and rep.outer_verdict == "verified"
        assert rep.residual_sup <= factor1d.BACKWARD_TOL * q.scale

    def test_ridged_sums_of_squares_factor_within_the_certificate(self):
        # The benchmark's strict_2d shape, r = 2, m = (1, 1), ridge 0.6, on
        # its seeds: every input factors, with at most plan.n + 1 factors.
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for _ in range(10):
                base = corpus.sos_instance2(rng, 2, 1, 1)
                coeffs = dict(base.coeffs)
                coeffs[(0, 0)] = coeffs[(0, 0)] + 0.6 * base.scale * np.eye(2)
                factors, rep, plan = factor_strict(MatrixLaurentPoly2(2, coeffs))
                assert len(factors) == rep.tolerances["lift_n"] + 1 <= plan.n + 1
                assert rep.converged and rep.outer_verdict == "verified"

    def test_clearly_negative_input_is_rejected_at_every_trial(self, monkeypatch):
        # An r = 2 sum of squares shifted to a minimum near -0.12 scale: the
        # delta override certifies N = 30, and every trial's lift and the
        # certified one are rejected.
        built = _lift_spy(monkeypatch)
        base = corpus.sos_instance2(np.random.default_rng(7), 2, 1, 1)
        shift = verify.grid_min_eig(base, verify.GridSpec(8, 8)).min_eig + 0.1 * base.scale
        coeffs = dict(base.coeffs)
        coeffs[(0, 0)] = coeffs[(0, 0)] - shift * np.eye(2)
        q = MatrixLaurentPoly2(2, coeffs)
        assert verify.grid_min_eig(q, verify.GridSpec(8, 8)).min_eig < -0.1 * q.scale
        with pytest.raises(StrictificationError, match="not nonnegative on circle"):
            factor_strict(q, delta=0.1 * q.scale)
        assert built == [1, 2, 4, 8, 16, 30]

    def test_independent_of_second_variable_collapses(self):
        q = scalar_laurent2({(0, 0): 5.0, (1, 0): 2.0})
        factors, rep, plan = factor_strict(q)
        assert plan.n == 0
        assert len(factors) == 1
        f = factors[0]
        assert abs(f.coeff(0, 0)[0, 0] - 2.0) <= 1e-6
        assert abs(f.coeff(1, 0)[0, 0] - 1.0) <= 1e-6

    def test_matrix_instance(self):
        rng = np.random.default_rng(55)
        base = corpus.sos_instance2(rng, 2, 1, 1)
        coeffs = dict(base.coeffs)
        coeffs[(0, 0)] = coeffs[(0, 0)] + 0.5 * base.scale * np.eye(2)
        q = MatrixLaurentPoly2(2, coeffs)
        factors, rep, plan = factor_strict(q)
        assert rep.residual_sup <= 1e-6 * q.scale
        assert len(factors) <= plan.n + 1
        assert all(f.deg1 <= q.deg1 for f in factors)

    def test_estimate_delta_guard_is_conservative(self):
        est = estimate_delta(Q_PLANE, verify.GridSpec(9, 9))
        assert 0.0 < est < 1.0  # true minimum is exactly 1

    def test_nonnegative_lift_is_factored_under_an_optimistic_delta(self):
        # delta = 0.5 overstates the minimum 0.2 of plane(4.2): the widened
        # polynomial dips below zero on the torus, but its lift at N = 7 is
        # nonnegative, so the operator theorem factors it exactly.
        q = plane(4.2)
        factors, rep, plan = factor_strict(q, delta=0.5)
        assert plan.n == 7
        assert rep.converged
        assert rep.residual_sup <= 1e-12 * q.scale

    def test_indefinite_lift_is_a_strictification_error(self):
        # delta = 1.0 for plane(3.9), which dips to -0.1, certifies N = 4;
        # every trial's lift and the certified one are not PSD, and the
        # certified lift's own screen rejects it.
        with pytest.raises(StrictificationError, match="not nonnegative on circle"):
            factor_strict(plane(3.9), delta=1.0)


def _residual_spy(monkeypatch):
    seen, residual = [], verify.residual

    def spy(q, factors, grid=verify.GridSpec()):
        seen.append(q)
        return residual(q, factors, grid)

    monkeypatch.setattr(verify, "residual", spy)
    return seen


class TestLiftedVerification:
    """The lift is factored by factor1d.factor without its 1-D residual;
    the 2-D residual against the target is the only one computed."""

    def test_strict_computes_one_residual(self, monkeypatch):
        seen = _residual_spy(monkeypatch)
        factor_strict(plane(4.4))
        assert [type(q) for q in seen] == [MatrixLaurentPoly2]

    def test_cesaro_computes_one_residual(self, monkeypatch):
        seen = _residual_spy(monkeypatch)
        q = corpus.sos_instance2(np.random.default_rng(45), 2, 1, 1)
        factor_cesaro(q, q.deg2 + 2)
        assert [type(q) for q in seen] == [MatrixLaurentPoly2]

    def test_lift_is_not_grid_screened(self, monkeypatch):
        # estimate_delta samples Q once on the grid for plane(5); the lift
        # itself is decided by its Toeplitz screen and Schur witnesses.
        calls, grid_min_eig = [], verify.grid_min_eig

        def spy(q, grid=verify.GridSpec()):
            calls.append(q)
            return grid_min_eig(q, grid)

        monkeypatch.setattr(verify, "grid_min_eig", spy)
        factor_strict(Q_PLANE)
        assert len(calls) == 1
        calls.clear()
        factor_cesaro(Q_PLANE, 4)
        assert calls == []

    @pytest.mark.parametrize("c0", [5.0, 4.4, 4.2])
    def test_report_matches_the_public_lifted_factorization(self, c0):
        q = plane(c0)
        factors, rep, plan = factor_strict(q)
        n = rep.tolerances["lift_n"]
        lifted = lift_to_block(inverse_cesaro(q, n), n)
        phi, rep1 = factor1d.factor(lifted, grid=verify.GridSpec(6))
        assert math.isfinite(rep1.residual_sup)
        assert (rep.outer_verdict, rep.n_used, rep.gap, rep.converged) == (
            rep1.outer_verdict,
            rep1.n_used,
            rep1.gap,
            rep1.converged,
        )
        assert {k: rep.tolerances[k] for k in rep1.tolerances} == rep1.tolerances
        expected = unlift_factor(phi, q.size, n)
        assert len(factors) == len(expected)
        for f, g in zip(factors, expected):
            assert list(f.coeffs) == list(g.coeffs)
            assert all(f.coeffs[i].tobytes() == g.coeffs[i].tobytes() for i in f.coeffs)


class TestAnyScale:
    # The two-variable counterpart of test_factor1d.py's TestAnyScale, on an
    # r = 3 sum of squares plus a ridge.
    @staticmethod
    def instance(s):
        base = corpus.sos_instance2(np.random.Generator(np.random.PCG64(2)), 3, 1, 1)
        coeffs = {k: c * s for k, c in base.coeffs.items()}
        coeffs[(0, 0)] = coeffs[(0, 0)] + 0.5 * s * base.scale * np.eye(3)
        return MatrixLaurentPoly2(3, coeffs)

    @pytest.mark.parametrize("s", [2.0**-500, 1e-150, 2.0**520], ids=["2^-500", "1e-150", "2^520"])
    def test_same_factorization_at_any_scale(self, s):
        q = self.instance(1.0)
        _, want, _ = factor_strict(q)
        _, got, _ = factor_strict(self.instance(s))
        assert (got.n_used, got.converged, got.outer_verdict) == (
            want.n_used,
            want.converged,
            want.outer_verdict,
        )
        assert got.residual_sup / (s * q.scale) == pytest.approx(
            want.residual_sup / q.scale, abs=1e-13
        )

    def test_near_the_largest_double(self):
        # 2^1021 (4I + A z1 + A*/z1 + 0.5I (z2 + 1/z2)): estimate_delta's
        # bound is formed from halves, so it scales exactly by the power of
        # two instead of overflowing to nan, and the N = 1 lift verifies.
        a = np.array([[0.5, 0.1], [0.0, 0.4]])

        def scaled(s):
            return MatrixLaurentPoly2.from_causal(
                2, {(0, 0): 4 * s * np.eye(2), (1, 0): s * a, (0, 1): 0.5 * s * np.eye(2)})

        s, grid = 2.0**1021, verify.GridSpec(9, 9)
        assert estimate_delta(scaled(s), grid) == s * estimate_delta(scaled(1.0), grid)
        q = scaled(s)
        _, rep, _ = factor_strict(q)
        assert rep.converged and rep.outer_verdict == "verified" and rep.tolerances["lift_n"] == 1
        assert rep.residual_sup <= factor1d.BACKWARD_TOL * q.scale
