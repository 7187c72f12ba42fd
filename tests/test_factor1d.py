import numpy as np
import pytest

from specfactor import corpus, factor1d, linalg, verify
from specfactor.factor1d import (
    NotNonnegativeError,
    SchurConvergenceError,
    factor,
    normalize_gauge,
    scalar_root_factor,
    schur_limit,
    truncated_schur,
)
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixLaurentPoly1,
    adjoint_product,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


def scalar_laurent(causal):
    return MatrixLaurentPoly1.from_causal(1, {k: [[v]] for k, v in causal.items()})


def scalar_analytic(coeffs):
    return MatrixAnalyticPoly1([np.array([[c]]) for c in coeffs])


def coeff_diff(a, b):
    top = max(a.degree, b.degree)
    return max(float(np.max(np.abs(a.coeff(k) - b.coeff(k)))) for k in range(top + 1))


Q_SECTION_STYLE = MatrixLaurentPoly1.from_causal(
    2, {0: np.diag([1.0, 2.0]), 1: E12}
)


class TestTruncatedSchur:
    def test_constant_identity(self):
        q = scalar_laurent({0: 1.0})
        for n in (1, 3, 10):
            np.testing.assert_allclose(truncated_schur(q, 0, n), [[1.0]], atol=1e-13)

    def test_scalar_banded_n2(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        np.testing.assert_allclose(truncated_schur(q, 0, 2), [[4.2]], atol=1e-12)

    def test_boundary_zero_n3(self):
        q = scalar_laurent({0: 2.0, 1: 1.0})
        np.testing.assert_allclose(truncated_schur(q, 0, 3), [[4.0 / 3.0]], atol=1e-12)

    def test_matches_dense_schur_complement(self):
        rng = np.random.default_rng(5)
        from specfactor.poly import block_toeplitz

        for _ in range(5):
            r = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            q, _ = corpus.ridged_instance(rng, r, m)
            n = 6
            k = int(rng.integers(0, 3))
            dense = linalg.schur_complement(block_toeplitz(q, n), (k + 1) * r)
            banded = truncated_schur(q, k, n)
            assert np.max(np.abs(dense - banded)) <= 1e-9 * q.scale

    def test_rejects_indefinite(self):
        q = scalar_laurent({0: 0.0, 1: 1.0})
        with pytest.raises(NotNonnegativeError, match="witness at truncation"):
            truncated_schur(q, 0, 4)

    def test_bad_arguments(self):
        q = scalar_laurent({0: 1.0})
        with pytest.raises(ValueError, match="N >= k"):
            truncated_schur(q, 2, 2)


class TestSchurLimit:
    def test_constant_one(self):
        res = schur_limit(scalar_laurent({0: 1.0}), 0)
        np.testing.assert_allclose(res.value, [[1.0]], atol=1e-14)
        assert res.gap == 0.0
        assert res.converged

    def test_scalar_limit_is_four(self):
        res = schur_limit(scalar_laurent({0: 5.0, 1: 2.0}), 0)
        np.testing.assert_allclose(res.value, [[4.0]], atol=1e-9)

    def test_section_style_example(self):
        res = schur_limit(Q_SECTION_STYLE, 0)
        np.testing.assert_allclose(res.value, np.eye(2), atol=1e-9)

    def test_truncation_monotone_psd_order(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            q, _ = corpus.ridged_instance(rng, 2, 2)
            scale = q.scale
            prev = None
            for n in (4, 8, 16, 32, 64):
                cur = truncated_schur(q, 0, n)
                if prev is not None:
                    lo = linalg.psd_check(prev - cur).min_eig
                    assert lo >= -1e-10 * scale
                prev = cur

    def test_slow_convergence_raises_with_partial(self):
        q = scalar_laurent({0: 2.0, 1: 1.0})  # boundary zero at z = -1
        with pytest.raises(SchurConvergenceError) as err:
            schur_limit(q, 0, n_max=64)
        assert err.value.gap > 0
        assert err.value.partial.value.shape == (1, 1)
        assert not err.value.partial.converged

    def test_memory_budget_stops_doubling(self, monkeypatch):
        # Budget for one doubling only: the second one stops through the
        # block-cap path, with the byte estimate in the message.
        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        m = q.degree
        n0 = 4 * (m + 1)
        need = factor1d.truncation_bytes(q, m, 4 * n0)
        assert need == 3 * 16 * (m + 1) * q.size**2 * 4 * n0
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        with pytest.raises(SchurConvergenceError) as err:
            schur_limit(q, m)
        assert f"need about {need:.3e} B" in str(err.value)
        assert err.value.partial.n_used == 2 * n0
        assert 0 < err.value.gap < np.inf
        _, rep = factor(q)
        assert not rep.converged
        assert rep.n_used == 2 * n0
        assert rep.gap == err.value.gap

    def test_inheritance_of_nested_complements(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            r = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            q, _ = corpus.ridged_instance(rng, r, m)
            sk = schur_limit(q, m).value
            for j in range(m):
                nested = linalg.schur_complement(sk, (j + 1) * r)
                direct = schur_limit(q, j).value
                assert np.max(np.abs(nested - direct)) <= 1e-7 * q.scale


def boundary_instance(rng, r, m):
    # Q = P*P with the first column of a random P multiplied by 1 + z:
    # det Q has a double zero at z = -1 on the circle.
    a = corpus.random_analytic1(rng, r, m - 1)
    coeffs = [c.copy() for c in a.coeffs] + [np.zeros((r, r), dtype=complex)]
    for j, c in enumerate(a.coeffs):
        coeffs[j + 1][:, 0] += c[:, 0]
    return adjoint_product(MatrixAnalyticPoly1(coeffs))


def limit_or_partial(q, k, **kwargs):
    try:
        return schur_limit(q, k, **kwargs)
    except SchurConvergenceError as err:
        return err.partial


class TestSegmentDoubling:
    def test_matches_direct_truncation(self):
        # k < m, k = m and k > m, the default start and n0 = 17, which is
        # not a multiple of b = max(k + 1, m).
        rng = np.random.default_rng(505)
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                for q in (corpus.ridged_instance(rng, r, m)[0], boundary_instance(rng, r, m)):
                    for k in sorted({0, m - 1, m, m + 1}):
                        for n0 in (None, 17):
                            res = limit_or_partial(q, k, n0=n0, n_max=512)
                            direct = truncated_schur(q, k, res.n_used)
                            assert np.max(np.abs(res.value - direct)) <= 1e-10 * q.scale

    @pytest.mark.parametrize("eps, n_blocks", [(1e-3, 128), (1e-5, 1024), (1e-6, 4096)])
    def test_witness_found_through_a_join(self, eps, n_blocks):
        # 1 - eps + cos(theta) dips below zero; the truncations first stop
        # being PSD at N = n_blocks, past the one banded doubling (N = 16).
        q = scalar_laurent({0: 1.0 - eps, 1: 0.5})
        with pytest.raises(NotNonnegativeError, match="witness at truncation") as err:
            schur_limit(q, 1)
        assert err.value.n_blocks == n_blocks

    def test_boundary_zero_degraded_gap(self):
        _, rep = factor(scalar_laurent({0: 2.0, 1: 1.0}))  # |1 + z|^2
        assert not rep.converged
        assert rep.n_used == 4096
        assert rep.gap == pytest.approx(2.443e-4, rel=1e-3)

    def test_two_banded_solves_per_limit(self, monkeypatch):
        # The n0 truncation and the first doubling are banded solves; the
        # nine later doublings up to N = 4096 are small dense joins.
        calls = []
        banded = factor1d.solveh_banded

        def counted(*args, **kwargs):
            calls.append(len(args[0][0]))
            return banded(*args, **kwargs)

        monkeypatch.setattr(factor1d, "solveh_banded", counted)
        res = limit_or_partial(scalar_laurent({0: 2.0, 1: 1.0}), 1)
        assert res.n_used == 4096
        assert len(calls) <= 2

    def test_one_kernel_for_joins_corners_and_schur_complement(self, monkeypatch):
        # Up to N = 4096 from n0 = 8: eight joins (N = 32 ... 4096) and nine
        # corner complements (N = 16 ... 4096), and the public
        # schur_complement, all through linalg.cholesky_complement.
        calls = []
        kernel = linalg.cholesky_complement

        def counted(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(linalg, "cholesky_complement", counted)
        res = limit_or_partial(scalar_laurent({0: 2.0, 1: 1.0}), 1)
        assert res.n_used == 4096
        assert len(calls) == 17
        calls.clear()
        linalg.schur_complement(np.eye(3), 1)
        assert calls == [2]


class TestFactor:
    def test_constant(self):
        p, rep = factor(scalar_laurent({0: 4.0}))
        assert p.coeff(0)[0, 0] == pytest.approx(2.0)
        assert rep.residual_sup <= 1e-12

    def test_exact_scalar_instance(self):
        p, rep = factor(scalar_laurent({0: 5.0, 1: 2.0}))
        assert abs(p.coeff(0)[0, 0] - 2.0) <= 1e-8
        assert abs(p.coeff(1)[0, 0] - 1.0) <= 1e-8
        assert rep.outer_verdict == "verified"

    def test_exact_matrix_instance(self):
        p, rep = factor(Q_SECTION_STYLE)
        assert np.max(np.abs(p.coeff(0) - np.eye(2))) <= 1e-7
        assert np.max(np.abs(p.coeff(1) - E12)) <= 1e-7
        assert rep.outer_verdict == "verified"

    def test_rejects_sign_changing(self):
        with pytest.raises(NotNonnegativeError, match="not nonnegative"):
            factor(scalar_laurent({0: 0.0, 1: 1.0}))

    def test_rejects_past_the_small_screen(self):
        # q = 1 + z + z^-1 dips to -1 on the circle, but its 2-block
        # Toeplitz truncation is still PSD; a deeper truncation catches it.
        q = scalar_laurent({0: 1.0, 1: 1.0})
        from specfactor.poly import toeplitz_psd_check

        assert toeplitz_psd_check(q, 2, tol=1e-9).ok
        with pytest.raises(NotNonnegativeError, match="witness at truncation"):
            factor(q)

    def test_zero_polynomial(self):
        q = MatrixLaurentPoly1.from_causal(2, {0: np.zeros((2, 2))})
        p, rep = factor(q)
        assert np.max(np.abs(p.coeff(0))) == 0.0
        assert rep.residual_sup == 0.0

    def test_random_roundtrip(self):
        rng = np.random.default_rng(20260810)
        for _ in range(10):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            q, _ = corpus.ridged_instance(rng, r, m)
            phat, rep = factor(q)
            assert rep.converged
            assert rep.residual_sup <= 1e-7 * q.scale
            assert phat.degree <= q.degree

    def test_gauge_uniqueness_across_truncation_starts(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            q, _ = corpus.ridged_instance(rng, 2, 3)
            p_a, _ = factor(q, n0=8)
            p_b, _ = factor(q, n0=17)
            assert coeff_diff(p_a, p_b) <= 1e-6 * q.scale

    def test_constant_coefficient_is_psd(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            q, _ = corpus.ridged_instance(rng, 3, 2)
            phat, _ = factor(q)
            p0 = phat.coeff(0)
            assert np.max(np.abs(p0 - p0.conj().T)) <= 1e-10 * q.scale
            assert linalg.psd_check(p0, tol=1e-10).ok

    def test_range_nesting_in_constant_coefficient(self):
        # Coefficients act into ran P_0 even when P_0 is singular.
        q = MatrixLaurentPoly1.from_causal(
            2, {0: np.diag([5.0, 0.0]), 1: np.array([[2.0, 0.0], [0.0, 0.0]])}
        )
        phat, rep = factor(q)
        assert rep.residual_sup <= 1e-7 * q.scale
        pair = linalg.eig_hermitian(phat.coeff(0))
        keep = pair.values > 1e-8 * pair.values[-1]
        proj = pair.basis[:, keep] @ pair.basis[:, keep].conj().T
        for k in range(1, phat.degree + 1):
            ck = phat.coeff(k)
            assert np.max(np.abs(proj @ ck - ck)) <= 1e-8 * q.scale

    def test_degraded_mode_reports_gap(self):
        q = scalar_laurent({0: 2.0, 1: 1.0})
        p, rep = factor(q, n_max=256)
        assert not rep.converged
        assert rep.gap > 0
        # residual stays gap-dominated rather than hard-failing
        assert rep.residual_sup <= 10 * rep.gap
        # gap and N_used are those of the single S(m) limit
        with pytest.raises(SchurConvergenceError) as err:
            schur_limit(q, 1, n_max=256)
        assert rep.gap == err.value.partial.gap
        assert rep.n_used == err.value.partial.n_used == 256

    def test_cap_below_one_doubling_raises(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        with pytest.raises(ValueError, match=r"minimum 2\(m \+ 1\) = 4"):
            factor(q, n_max=3)
        # At the minimum cap one doubling fits, so the gap is finite.
        _, rep = factor(q, n_max=4)
        assert not rep.converged
        assert 0 < rep.gap < np.inf
        assert rep.n_used == 4

    def test_one_schur_limit_per_factorization(self, monkeypatch):
        calls = []

        def counted(q, k, **kwargs):
            calls.append(k)
            return schur_limit(q, k, **kwargs)

        monkeypatch.setattr(factor1d, "schur_limit", counted)
        q, _ = corpus.ridged_instance(np.random.default_rng(12), 2, 3)
        factor(q)
        assert calls == [3]

    def test_last_block_row_of_limit_is_read_off_the_factor(self):
        # S(m) = L* L with L[i, j] = P_{i-j}: its last block row is
        # [P_0* P_m, ..., P_0* P_0].
        rng = np.random.default_rng(2026)
        for r in (1, 2, 3):
            for m in (1, 2, 3, 4):
                q, _ = corpus.ridged_instance(rng, r, m)
                phat, _ = factor(q)
                last = schur_limit(q, m).value[m * r :, :]
                p0h = phat.coeff(0).conj().T
                want = np.hstack([p0h @ phat.coeff(m - j) for j in range(m + 1)])
                assert np.max(np.abs(last - want)) <= 1e-10 * q.scale


class TestNormalizeGauge:
    def test_identity_when_already_psd(self):
        p = MatrixAnalyticPoly1([np.diag([2.0, 1.0]), E12])
        out = normalize_gauge(p)
        assert coeff_diff(p, out) <= 1e-12

    def test_permutation_constant(self):
        p = MatrixAnalyticPoly1([np.array([[0.0, 1.0], [1.0, 0.0]])])
        out = normalize_gauge(p)
        np.testing.assert_allclose(out.coeff(0), np.eye(2), atol=1e-12)

    def test_scalar_phase(self):
        out = normalize_gauge(scalar_analytic([-2.0, -1.0]))
        assert out.coeff(0)[0, 0] == pytest.approx(2.0)
        assert out.coeff(1)[0, 0] == pytest.approx(1.0)

    def test_eval_norms_unchanged(self):
        rng = np.random.default_rng(41)
        p = MatrixAnalyticPoly1(
            [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        )
        out = normalize_gauge(p)
        assert coeff_diff(adjoint_product(p), adjoint_product(out)) <= 1e-12 * p.scale

    def test_singular_constant_coefficient(self):
        rank_one = np.outer([1.0, 2j, -1.0], [0.5, 1.0, 1j])
        for p in (
            MatrixAnalyticPoly1([np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2)]),
            MatrixAnalyticPoly1([rank_one, np.eye(3)]),
        ):
            out = normalize_gauge(p)
            p0 = out.coeff(0)
            assert np.max(np.abs(p0 - p0.conj().T)) <= 1e-12
            assert linalg.psd_check(p0, tol=1e-10).ok
            assert coeff_diff(adjoint_product(p), adjoint_product(out)) <= 1e-12

    def test_gauge_is_unique_for_invertible_constant_coefficient(self):
        # Q = P*P fixes an outer P up to a constant unitary on the left, and
        # the gauge P(0) >= 0 removes it: U P and P normalize to one factor.
        rng = np.random.default_rng(73)
        for r in (1, 2, 3, 4):
            for _ in range(5):
                gauss = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(4)]
                p = MatrixAnalyticPoly1(gauss[:3])
                u, _ = np.linalg.qr(gauss[3])
                rotated = MatrixAnalyticPoly1([u @ c for c in p.coeffs])
                assert coeff_diff(normalize_gauge(rotated), normalize_gauge(p)) <= 1e-12 * p.scale


class TestScalarRootFactor:
    def test_constant(self):
        p = scalar_root_factor(scalar_laurent({0: 1.0}))
        assert p.coeff(0)[0, 0] == pytest.approx(1.0)

    def test_boundary_double_root(self):
        p = scalar_root_factor(scalar_laurent({0: 2.0, 1: 1.0}))
        assert abs(p.coeff(0)[0, 0] - 1.0) <= 1e-7
        assert abs(p.coeff(1)[0, 0] - 1.0) <= 1e-7

    def test_strict_instance(self):
        p = scalar_root_factor(scalar_laurent({0: 5.0, 1: 2.0}))
        assert p.coeff(0)[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert p.coeff(1)[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError, match="scalar-only"):
            scalar_root_factor(Q_SECTION_STYLE)

    def test_rejects_sign_changing(self):
        with pytest.raises(NotNonnegativeError):
            scalar_root_factor(scalar_laurent({0: 0.0, 1: 1.0}))

    def test_unpaired_boundary_root(self):
        # q = 2 + cos(theta) stays positive; build one that crosses zero
        # with a simple root instead: q = z + z^-1 screen-fails first, so
        # craft a marginal liar that passes the screen but has odd pairing.
        # (2 - z - z^-1) has a double root at +1: pairing succeeds.  An odd
        # boundary root cannot occur for truly nonnegative q, so check the
        # mechanism on the double root instead.
        p = scalar_root_factor(scalar_laurent({0: 2.0, 1: -1.0}))
        assert abs(p.coeff(0)[0, 0] - 1.0) <= 1e-7
        assert abs(p.coeff(1)[0, 0] + 1.0) <= 1e-7

    def test_agrees_with_schur_path(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            radii = rng.uniform(1.05, 3.0, size=m)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=m)
            monic = np.poly(radii * np.exp(1j * angles))[::-1]
            q = adjoint_product(scalar_analytic(list(monic)))
            a = normalize_gauge(factor(q)[0])
            b = normalize_gauge(scalar_root_factor(q))
            assert coeff_diff(a, b) <= 1e-6 * q.scale

    def test_factor_outer_roots(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            m = int(rng.integers(1, 5))
            radii = rng.uniform(1.05, 3.0, size=m)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=m)
            monic = np.poly(radii * np.exp(1j * angles))[::-1]
            q = adjoint_product(scalar_analytic(list(monic)))
            p = scalar_root_factor(q)
            check = verify.outer_check(p)
            assert check.verdict == "verified"
