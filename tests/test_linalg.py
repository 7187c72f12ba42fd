import numpy as np
import pytest

from specfactor import linalg
from specfactor.linalg import (
    InconsistentSystemError,
    NotPSDError,
    contraction_extract,
    eig_hermitian,
    embed_leading,
    psd_check,
    psd_sqrt,
    range_restricted_solve,
    schur_complement,
)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_psd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    return g @ g.conj().T


class TestEigHermitian:
    def test_identity(self):
        pair = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(pair.values, [1.0, 1.0])
        np.testing.assert_allclose(
            pair.basis.conj().T @ pair.basis, np.eye(2), atol=1e-13
        )

    def test_diagonal(self):
        pair = eig_hermitian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(pair.values, [1.0, 3.0])

    def test_symmetric_2x2_by_hand(self):
        pair = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(pair.values, [1.0, 3.0], atol=1e-13)
        # eigenvectors (1,-1)/sqrt(2) and (1,1)/sqrt(2) up to phase
        v0, v1 = pair.basis[:, 0], pair.basis[:, 1]
        assert abs(abs(np.vdot(v0, [1, -1] / np.sqrt(2))) - 1) < 1e-12
        assert abs(abs(np.vdot(v1, [1, 1] / np.sqrt(2))) - 1) < 1e-12

    def test_backward_stable_on_random_hermitian(self):
        # ||H V - V Lambda|| <= c n eps ||H|| and ||V* V - I|| <= c n eps,
        # spectral norms: the eigenpairs are exact for a nearby matrix.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 9, 16, 32):
            h = random_hermitian(rng, n)
            pair = eig_hermitian(h)
            v = pair.basis
            backward = np.linalg.norm(h @ v - v * pair.values, 2)
            assert backward <= 10 * n * eps * np.linalg.norm(h, 2)
            assert np.linalg.norm(v.conj().T @ v - np.eye(n), 2) <= 10 * n * eps

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 8, 16):
            h = random_hermitian(rng, n)
            pair = eig_hermitian(h)
            norm = np.max(np.abs(pair.values))
            rec = (pair.basis * pair.values) @ pair.basis.conj().T
            assert np.max(np.abs(rec - h)) <= 1e-10 * max(norm, 1.0)
            gram = pair.basis.conj().T @ pair.basis
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12 * n

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rank_decisions_on_graded_gram_matrices(self):
        # H = G G* with rank k and singular values of G log-spaced from 1
        # to 1e-3: the smallest nonzero eigenvalue is 1e-6 * lambda_max,
        # far above the rank thresholds, and the n - k zero eigenvalues
        # must stay at rounding level.
        rng = np.random.default_rng(31)
        for n in range(2, 17):
            for k in sorted({1, n // 2, n - 1}):
                u, _ = np.linalg.qr(random_hermitian(rng, n) + 1j * np.eye(n))
                w, _ = np.linalg.qr(random_hermitian(rng, k) + 1j * np.eye(k))
                g = (u[:, :k] * np.logspace(0, -3, k)) @ w.conj().T
                h = g @ g.conj().T
                pair = eig_hermitian(h)
                top = float(pair.values[-1])
                assert np.sum(np.abs(pair.values) <= 1e-12 * top) == n - k
                # The rank decision of the extension solve: solving H X = H
                # over ran H gives the orthogonal projector onto ran H.
                proj = range_restricted_solve(h, h, rank_tol=1e-10)
                assert np.max(np.abs(proj - proj.conj().T)) <= 1e-8
                assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
                assert abs(np.trace(proj) - k) <= 1e-8
                root = psd_sqrt(h)
                assert np.max(np.abs(root @ root - h)) <= 1e-12 * top


class TestPsdCheck:
    def test_identity(self):
        verdict = psd_check(np.eye(3))
        assert verdict.ok
        assert abs(verdict.min_eig - 1.0) < 1e-13

    def test_rank_one(self):
        verdict = psd_check(np.array([[1.0, 1.0], [1.0, 1.0]]), tol=1e-12)
        assert verdict.ok
        assert abs(verdict.min_eig) < 1e-13

    def test_indefinite(self):
        verdict = psd_check(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not verdict.ok
        assert abs(verdict.min_eig + 1.0) < 1e-13

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_verdict_is_scale_invariant(self, scale):
        assert not psd_check(scale * np.diag([1.0, -0.5]), tol=1e-8).ok
        assert psd_check(scale * np.diag([1.0, -1e-10]), tol=1e-8).ok

    def test_zero_matrix_passes(self):
        assert psd_check(np.zeros((2, 2))).ok


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13
        )

    def test_2x2_by_hand(self):
        root = psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s3 = np.sqrt(3.0)
        expected = np.array([[(s3 + 1) / 2, (s3 - 1) / 2], [(s3 - 1) / 2, (s3 + 1) / 2]])
        np.testing.assert_allclose(root, expected, atol=1e-12)

    def test_square_roundtrip_random(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 9, 16):
            h = random_psd(rng, n)
            r = psd_sqrt(h)
            norm = np.max(np.abs(np.linalg.eigvalsh(h)))
            assert np.max(np.abs(r @ r - h)) <= 1e-10 * max(norm, 1.0)
            assert psd_check(r, tol=1e-12).ok

    def test_clamps_marginal_negatives(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]]) - 1e-12 * np.eye(2)
        r = psd_sqrt(h, clamp_tol=1e-9)
        assert psd_check(r, tol=1e-12).ok

    def test_rejects_genuinely_indefinite(self):
        with pytest.raises(NotPSDError) as err:
            psd_sqrt(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert err.value.eigenvalue == pytest.approx(-1.0)


class TestContractionExtract:
    def test_zero_offdiagonal(self):
        g = contraction_extract(np.eye(2), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(g, np.zeros((2, 2)), atol=1e-14)

    def test_scalar_identity(self):
        g = contraction_extract(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(g, [[1.0]], atol=1e-12)

    def test_scalar_half(self):
        g = contraction_extract(np.array([[1.0]]), np.array([[1.0]]), np.array([[4.0]]))
        np.testing.assert_allclose(g, [[0.5]], atol=1e-12)

    def test_roundtrip_on_random_psd_blocks(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            m = random_psd(rng, n)
            a, b, c = m[:k, :k], m[k:, :k], m[k:, k:]
            g = contraction_extract(a, b, c)
            scale = max(np.max(np.abs(m)), 1.0)
            a_half = psd_sqrt(a)
            c_half = psd_sqrt(c)
            assert np.max(np.abs(c_half @ g @ a_half - b)) <= 1e-9 * scale
            assert linalg.op_norm(g) <= 1.0 + 1e-10

    def test_rejects_non_psd_block(self):
        # B too large for [[A, B*], [B, C]] to be PSD
        with pytest.raises(NotPSDError, match="block not PSD"):
            contraction_extract(np.array([[1.0]]), np.array([[5.0]]), np.array([[1.0]]))


class TestSchurComplement:
    def test_familiar_formula_2x2(self):
        s = schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        np.testing.assert_allclose(s, [[1.5]], atol=1e-12)

    def test_identity(self):
        s = schur_complement(np.eye(2), 1)
        np.testing.assert_allclose(s, [[1.0]], atol=1e-13)

    def test_rank_one(self):
        s = schur_complement(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)
        np.testing.assert_allclose(s, [[0.0]], atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            schur_complement(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError, match="out of range"):
            schur_complement(np.eye(2), 2)

    def test_difference_stays_psd_random(self):
        # largest-S property, part (i): M - embed(S) is PSD
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            rank = int(rng.integers(1, n + 1))
            m = random_psd(rng, n, rank=rank)
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            s = schur_complement(m, k)
            verdict = psd_check(m - embed_leading(s, n), tol=0.0)
            assert verdict.min_eig >= -1e-9 * max(norm, 1.0)

    def test_maximality_probe_invertible_trailing(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            m = random_psd(rng, n)  # full rank a.s.
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            s = schur_complement(m, k)
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            v /= np.linalg.norm(v)
            bump = 1e-3 * norm * np.outer(v, v.conj())
            verdict = psd_check(m - embed_leading(s + bump, n), tol=1e-9 * norm)
            assert not verdict.ok

    def test_agrees_with_inverse_formula_when_invertible(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            m = random_psd(rng, n) + 0.1 * np.eye(n)
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            a, b, c = m[:k, :k], m[k:, :k], m[k:, k:]
            ref = a - b.conj().T @ np.linalg.solve(c, b)
            s = schur_complement(m, k)
            assert np.max(np.abs(s - ref)) <= 1e-8 * norm

    def test_singular_trailing_block(self):
        # C = 0 forces the jitter retry of cholesky_complement; S must equal A
        m = np.array([[2.0, 0.0], [0.0, 0.0]])
        s = schur_complement(m, 1)
        np.testing.assert_allclose(s, [[2.0]], atol=1e-10)

    def test_graded_trailing_block(self):
        # C = diag(1, 1e-11) has a condition number past 1e10, but M is
        # positive definite: S = 1 - b^2 / 1e-11 = 0.19.
        b = 0.9 * np.sqrt(1e-11)
        m = np.array([[1.0, 0.0, b], [0.0, 1.0, 0.0], [b, 0.0, 1e-11]])
        np.testing.assert_allclose(schur_complement(m, 1), [[0.19]], atol=1e-12)

    def test_matches_inverse_formula_on_graded_matrices(self):
        # Positive definite M = G G* whose columns of G are graded from 1
        # down to 1e-4..1e-6, so C is far from well conditioned.
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n - 1))
            grade = np.logspace(0, -rng.uniform(4, 6), n)
            g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * grade
            m = g @ g.conj().T
            a, b, c = m[:k, :k], m[k:, :k], m[k:, k:]
            ref = a - b.conj().T @ np.linalg.solve(c, b)
            s = schur_complement(m, k)
            assert np.max(np.abs(s - ref)) <= 1e-8 * np.max(np.abs(m))

    def test_rejects_negative_trailing_block_with_zero_coupling(self):
        # B = 0 must not shortcut the elimination: C = -1 is not PSD.
        with pytest.raises(NotPSDError):
            schur_complement(np.diag([1.0, -1.0]), 1)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(schur_complement(np.zeros((3, 3)), 1), [[0.0]])


class TestCholeskyComplement:
    def test_familiar_formula(self):
        a, b, c = np.array([[2.0]]), np.array([[1.0]]), np.array([[4.0]])
        s = linalg.cholesky_complement(a, b, c, 4.0)
        np.testing.assert_allclose(s, [[1.75]], atol=1e-14)

    def test_result_is_exactly_hermitian(self):
        rng = np.random.default_rng(7)
        m = random_psd(rng, 6)
        s = linalg.cholesky_complement(m[:2, :2], m[2:, :2], m[2:, 2:], 1.0)
        np.testing.assert_array_equal(s, s.conj().T)

    def test_rejects_indefinite_block_after_retry(self):
        with pytest.raises(NotPSDError, match="not positive definite"):
            linalg.cholesky_complement(np.eye(1), np.ones((1, 1)), -np.eye(1), 1.0)


class TestRangeRestrictedSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(range_restricted_solve(np.eye(2), b), b, atol=1e-12)

    def test_scalar(self):
        x = range_restricted_solve(np.array([[2.0]]), np.array([[3.0]]))
        np.testing.assert_allclose(x, [[1.5]], atol=1e-13)

    def test_minimum_norm_with_kernel(self):
        rstar = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0], [0.0]])
        x = range_restricted_solve(rstar, b)
        np.testing.assert_allclose(x, [[5.0], [0.0]], atol=1e-12)

    def test_range_condition(self):
        # solution components outside ran(R) are zeroed
        rng = np.random.default_rng(51)
        r = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        rstar = r.conj().T  # 2x4, rank 2
        x_true = r @ (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        b = rstar @ x_true
        x = range_restricted_solve(rstar, b)
        # x lies in ran(R): projecting onto it changes nothing
        proj = r @ np.linalg.pinv(r)
        np.testing.assert_allclose(proj @ x, x, atol=1e-10)
        np.testing.assert_allclose(rstar @ x, b, atol=1e-10)

    def test_inconsistent_system_raises(self):
        rstar = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0], [1.0]])
        with pytest.raises(InconsistentSystemError) as err:
            range_restricted_solve(rstar, b)
        assert err.value.residual == pytest.approx(1.0)
