import math

import numpy as np
import pytest
from scipy.linalg import eig

from specfactor import corpus, factor1d, factor2d, verify
from specfactor.factor2d import (
    NotStrictlyPositiveError,
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
    MatrixLaurentPoly2,
    eval2_grid,
)


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

    def test_first_bound_is_taken_at_the_second_degree(self, monkeypatch):
        seen = []
        bound = factor2d.remainder_bound
        monkeypatch.setattr(
            factor2d, "remainder_bound", lambda q, n, norms=None: seen.append(n) or bound(q, n, norms)
        )
        q = corpus.sos_instance2(np.random.default_rng(62), 1, 1, 3)
        plan = choose_truncation(q, 0.01 * q.scale)
        assert seen[0] == q.deg2 == 3
        assert len(seen) < plan.n - q.deg2 + 1  # fewer calls than the linear scan

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


class TestLiftToBlock:
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

    @pytest.mark.parametrize("c0", [4.2, 4.1])
    def test_lifted_planes_are_outer_verified(self, c0, monkeypatch):
        # The lifted factors (sizes 17 and 35) are well conditioned, with
        # every zero of det Phi outside the disc of radius 1.1, although the
        # coefficients of det Phi are tiny.
        lifted, check = [], verify.outer_check

        def spy(p, **kw):
            lifted.append(p)
            return check(p, **kw)

        monkeypatch.setattr(verify, "outer_check", spy)
        factors, rep, plan = factor_strict(plane(c0))
        assert rep.outer_verdict == "verified"
        (phi,) = lifted
        assert phi.rows == plan.n + 1
        alpha, beta = eig(*verify._companion_pencil(phi), right=False, homogeneous_eigvals=True)
        assert np.all(np.abs(alpha) > 1.1 * np.abs(beta))

    def test_lift_over_budget_is_refused_before_it_is_built(self, monkeypatch):
        built, lift = [], factor2d.lift_to_block
        monkeypatch.setattr(factor2d, "lift_to_block", lambda q, n: built.append(n) or lift(q, n))
        q = plane(4.2)
        plan_n = choose_truncation(q, estimate_delta(q, verify.GridSpec(9, 9))).n
        need = factor1d.truncation_bytes((plan_n + 1, 1), 1, 8)  # n0 = 4(m1 + 1)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        with pytest.raises(factor1d.SchurConvergenceError, match="over the memory budget") as info:
            factor_strict(q)
        assert built == []
        assert f"{need:.3e} B" in str(info.value)
        assert info.value.gap == math.inf and info.value.partial is None
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need)
        factors, rep, plan = factor_strict(q)
        assert built == [plan_n]

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

    @pytest.mark.parametrize("c0", [5.0, 4.4, 4.2])
    def test_report_matches_the_public_lifted_factorization(self, c0):
        q = plane(c0)
        factors, rep, plan = factor_strict(q)
        lifted = lift_to_block(inverse_cesaro(q, plan.n), plan.n)
        phi, rep1 = factor1d.factor(lifted, grid=verify.GridSpec(6))
        assert math.isfinite(rep1.residual_sup)
        assert (rep.outer_verdict, rep.n_used, rep.gap, rep.converged) == (
            rep1.outer_verdict,
            rep1.n_used,
            rep1.gap,
            rep1.converged,
        )
        assert {k: rep.tolerances[k] for k in rep1.tolerances} == rep1.tolerances
        expected = unlift_factor(phi, q.size, plan.n)
        assert len(factors) == len(expected)
        for f, g in zip(factors, expected):
            assert list(f.coeffs) == list(g.coeffs)
            assert all(f.coeffs[i].tobytes() == g.coeffs[i].tobytes() for i in f.coeffs)
