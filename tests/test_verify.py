import numpy as np
import pytest

from specfactor import corpus
from specfactor.factor1d import factor, normalize_gauge
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    eval1,
)
from specfactor.verify import GridSpec, det_poly, grid_min_eig, outer_check, residual


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


class TestDetPoly:
    def test_constant_identity(self):
        p = MatrixAnalyticPoly1([np.eye(2)])
        np.testing.assert_allclose(det_poly(p), [1.0], atol=1e-13)

    def test_diagonal_product(self):
        p = MatrixAnalyticPoly1([np.diag([1.0, 2.0]), np.diag([1.0, 0.0])])
        np.testing.assert_allclose(det_poly(p), [2.0, 2.0, 0.0], atol=1e-12)

    def test_unipotent(self):
        p = MatrixAnalyticPoly1([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        coeffs = det_poly(p)
        np.testing.assert_allclose(coeffs[0], 1.0, atol=1e-13)
        assert np.max(np.abs(coeffs[1:])) <= 1e-13

    def test_eval_consistency_random(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(0, 4))
            p = MatrixAnalyticPoly1(
                [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(m + 1)]
            )
            coeffs = det_poly(p)
            scale = max(np.max(np.abs(coeffs)), 1.0)
            for t in rng.uniform(0, 1, size=3):
                z = np.exp(2j * np.pi * t)
                direct = np.linalg.det(eval1(p, z))
                horner = sum(c * z**k for k, c in enumerate(coeffs))
                assert abs(direct - horner) <= 1e-9 * scale


class TestOuterCheck:
    def test_verified_root_outside(self):
        assert outer_check(scalar_analytic([2.0, 1.0])).verdict == "verified"

    def test_failed_with_witness(self):
        check = outer_check(scalar_analytic([1.0, 2.0]))
        assert check.verdict == "failed"
        assert check.witness == pytest.approx(-0.5)

    def test_inconclusive_on_degenerate_determinant(self):
        p = MatrixAnalyticPoly1([np.array([[1.0, 0.0], [0.0, 0.0]])])
        assert outer_check(p).verdict == "inconclusive"

    def test_boundary_root_is_legitimate(self):
        assert outer_check(scalar_analytic([1.0, 1.0])).verdict == "verified"

    def test_gauge_invariance_of_verdict(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            p = MatrixAnalyticPoly1(
                [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
            )
            assert outer_check(p).verdict == outer_check(normalize_gauge(p)).verdict


class TestFactorReportConsistency:
    def test_reported_residual_matches_recheck(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            q, _ = corpus.ridged_instance(rng, 2, 3)
            phat, rep = factor(q)
            again = residual(q, phat, GridSpec(9))
            assert again == pytest.approx(rep.residual_sup, rel=1e-9, abs=1e-12)
