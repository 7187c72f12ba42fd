import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from specfactor import linalg
from specfactor.linalg import (
    InconsistentSystemError,
    NotPSDError,
    check_hermitian,
    cholesky_psd,
    eig_hermitian,
    from_lower,
    psd_check,
    psd_sqrt,
    psd_verdict,
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
        # Entries near the largest double: the Hermitian part halves
        # before it adds, so it does not overflow to inf and NaN.
        for vectors in (True, False):
            pair = eig_hermitian(np.diag([1.7e308, 1.0]), vectors=vectors)
            np.testing.assert_array_equal(pair.values, [1.0, 1.7e308])

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
                proj = range_restricted_solve(h, h)
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
        assert psd_check(np.diag([1.7e308, scale])) == (True, scale)  # no overflow to NaN

    def test_zero_matrix_passes(self):
        assert psd_check(np.zeros((2, 2))).ok


def with_spectrum(rng, vals):
    # A seeded unitary conjugate of diag(vals), exactly Hermitian.
    n = len(vals)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (u * vals) @ u.conj().T
    return (h + h.conj().T) / 2


class TestCholeskyPsd:
    TOL = 1e-8

    def verdicts(self, h):
        return cholesky_psd(h, self.TOL), psd_check(h, tol=self.TOL).ok

    def test_never_passes_what_psd_check_fails(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 6, 12):
            for scale in (1.0, 1e-9, 1e6):
                full = scale * random_psd(rng, n)
                deficient = scale * random_psd(rng, n, rank=max(n // 2, 1))
                assert self.verdicts(full) == (True, True)
                assert self.verdicts(deficient) == (True, True)
                assert self.verdicts(np.zeros((n, n), dtype=complex)) == (False, True)
                for side in (1 - 1e-3, 1 + 1e-3):
                    vals = scale * np.r_[-self.TOL * side, rng.uniform(0.1, 1.0, n), 1.0]
                    chol, ok = self.verdicts(with_spectrum(rng, vals))
                    assert ok == (side < 1)
                    assert not chol or ok

    def test_decides_nothing_on_nonfinite_input(self):
        for bad in (np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
            assert not cholesky_psd(bad.astype(complex), 1e-8)
        assert not cholesky_psd(np.eye(2, dtype=complex), np.inf)

    def test_decides_nothing_below_the_rounding_guard(self):
        # A tol below 2^10 n eps gives False, even for the identity; the
        # Toeplitz screen and the corner verdict then solve for eigenvalues.
        for n in (1, 4, 30):
            edge = 2**10 * n * np.finfo(float).eps
            assert cholesky_psd(np.eye(n, dtype=complex), edge)
            assert not cholesky_psd(np.eye(n, dtype=complex), edge * (1 - 1e-3))
            assert not cholesky_psd(np.eye(n, dtype=complex), 0.0)

    @staticmethod
    def summed_form(h, floor):
        # The verdict as potrf of h + diag(floor/2) (fresh +0.0 off the diagonal).
        chol, info = linalg._potrf(h + np.diag(np.full(len(h), floor / 2)), lower=1, clean=0)
        return info == 0 and bool(np.isfinite(chol).all())

    def test_matches_the_summed_form_at_the_shifted_edge(self):
        # Smallest eigenvalue +-(floor/2)(1 +- 1e-3): h + (floor/2) I is just
        # definite or just indefinite, and both forms decide alike, the
        # floor passed as tol = floor / max|h_ii|.
        # A block of -0.0 entries couples the spectrum to two more diagonal
        # entries: the one place the two forms' shifted copies differ.
        rng = np.random.default_rng(42)
        floor = 1e-6
        for n in (1, 2, 5, 12):
            for sign in (-1, 1):
                for side in (1 - 1e-3, 1 + 1e-3):
                    edge = sign * floor / 2 * side
                    h = np.full((n + 2, n + 2), complex(-0.0, -0.0))
                    h[:n, :n] = with_spectrum(rng, np.r_[edge, rng.uniform(0.1, 1.0, n - 1)])
                    h[n, n], h[n + 1, n + 1] = 0.5, 0.7
                    before = h.tobytes()
                    tol = floor / float(np.max(np.abs(np.diagonal(h))))
                    assert cholesky_psd(h, tol) == self.summed_form(h, floor) == (sign > 0 or side < 1)
                    assert h.tobytes() == before  # the input is not written

    def test_matches_the_summed_form_on_nonfinite_input(self):
        for bad in (np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]]),
                    np.array([[1.0, -np.inf], [-np.inf, 4.0]])):
            bad = bad.astype(complex)
            before = bad.tobytes()
            assert cholesky_psd(bad, 1e-8) == self.summed_form(bad, 1e-8) is False
            assert bad.tobytes() == before  # the input is not written


class TestPsdVerdict:
    TOL = 1e-8

    def test_potrf_first_eigenvalues_only_where_it_fails(self, monkeypatch):
        # (True, nan) where cholesky_psd passes, with no eigensolve; else
        # psd_check(from_lower(h), tol), bit for bit.  Only the lower
        # triangle decides: the upper one holds unrelated finite entries.
        calls = []
        eig = linalg.eig_hermitian
        monkeypatch.setattr(linalg, "eig_hermitian", lambda h, **kw: calls.append(len(h)) or eig(h, **kw))
        rng = np.random.default_rng(43)
        for n in (1, 2, 5, 12):
            for h in (random_psd(rng, n), random_psd(rng, n, rank=max(n // 2, 1)), random_hermitian(rng, n),
                      np.zeros((n, n), dtype=complex)):
                lower = np.tril(h) + np.triu(1e3 * random_hermitian(rng, n), 1)
                decided, ref = cholesky_psd(h, self.TOL), psd_check(from_lower(h), tol=self.TOL)
                calls.clear()
                verdict = psd_verdict(lower, self.TOL)
                if decided:
                    assert verdict.ok and np.isnan(verdict.min_eig) and calls == []
                else:
                    assert verdict == ref and calls == [n]

    def test_an_indefinite_matrix_has_its_eigenvalue(self):
        verdict = psd_verdict(np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex), self.TOL)
        assert not verdict.ok and verdict.min_eig == pytest.approx(-1.0)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13
        )
        # Near the largest double the eigensolve and the root's Hermitian
        # part stay finite.
        np.testing.assert_array_equal(psd_sqrt([[1.7e308]]), [[np.sqrt(1.7e308)]])

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


class TestSchurComplement:
    def test_result_is_exactly_hermitian(self):
        rng = np.random.default_rng(7)
        for n, k in [(6, 2), (9, 5), (3, 1)]:
            s = schur_complement(random_psd(rng, n), k)
            np.testing.assert_array_equal(s, s.conj().T)

    def test_familiar_formula_2x2(self):
        s = schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        np.testing.assert_allclose(s, [[1.5]], atol=1e-12)
        # Zero coupling near the largest double: the complement is A itself.
        np.testing.assert_array_equal(schur_complement(np.diag([1.7e308, 1.0]), 1), [[1.7e308]])

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
        # largest-S property, part (i): M - S padded with zeros is PSD
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            rank = int(rng.integers(1, n + 1))
            m = random_psd(rng, n, rank=rank)
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            s = schur_complement(m, k)
            verdict = psd_check(m - np.pad(s, (0, n - k)), tol=0.0)
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
            verdict = psd_check(m - np.pad(s + bump, (0, n - k)), tol=1e-9 * norm)
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

    def test_result_is_the_lower_triangle(self):
        # Only the lower triangle of the result is the complement; from_lower
        # mirrors it into the exactly Hermitian matrix.
        m = from_lower(random_psd(np.random.default_rng(7), 6))
        s = linalg.cholesky_complement(m[:2, :2], m[2:, :2], m[2:, 2:], 1.0)
        h = from_lower(s)
        np.testing.assert_array_equal(h, h.conj().T)
        np.testing.assert_array_equal(np.tril(h), np.tril(s))
        np.testing.assert_array_equal(h, schur_complement(m, 2))

    def test_rejects_indefinite_block_after_retry(self):
        with pytest.raises(NotPSDError, match="not positive definite"):
            linalg.cholesky_complement(np.eye(1), np.ones((1, 1)), -np.eye(1), 1.0)


def cho_factor_jittered(c, scale):
    # scipy.linalg's cho_factor, with the kernel's one jitter retry.
    try:
        return cho_factor(c, lower=True)[0]
    except np.linalg.LinAlgError:
        c = c.copy()
        c[np.diag_indices(len(c))] += 1e-13 * scale
        try:
            return cho_factor(c, lower=True)[0]
        except np.linalg.LinAlgError as exc:
            raise NotPSDError("not positive definite") from exc


def cho_complement_reference(a, b, c, scale):
    # The kernel through scipy.linalg's cho_factor, solve_triangular (trtrs)
    # and blas.zherk wrappers: the lower triangle of a - y* y, y = L^(-1) b.
    y = solve_triangular(cho_factor_jittered(c, scale), b, lower=True)
    return np.tril(scipy.linalg.blas.zherk(-1.0, y, beta=1.0, c=a, trans=2, lower=1))


def cho_solve_complement(a, b, c, scale):
    # The kernel's earlier formula: a - b* (c^(-1) b) by cho_solve, symmetrized.
    s = a - b.conj().T @ cho_solve((cho_factor_jittered(c, scale), True), b)
    return (s + s.conj().T) / 2


class TestDirectCholesky:
    # cholesky_complement calls LAPACK potrf/trtrs and BLAS herk itself; its
    # lower triangle must agree with the scipy.linalg wrappers bit for bit.
    def test_matches_wrappers_on_views_and_copies(self):
        rng = np.random.default_rng(41)
        for n in range(1, 41):
            k = int(rng.integers(1, 5))
            m = random_psd(rng, n + k)
            scale = float(np.max(np.abs(m)))
            # the non-contiguous slices a corner complement passes, then copies
            for a, b, c in [(m[:k, :k], m[k:, :k], m[k:, k:]),
                            (m[:k, :k].copy(), m[k:, :k].copy(), m[k:, k:].copy())]:
                got = linalg.cholesky_complement(a, b, c, scale)
                np.testing.assert_array_equal(np.tril(got), cho_complement_reference(a, b, c, scale))

    def test_agrees_with_the_cho_solve_formula(self):
        # y* y in place of b* (c^(-1) b): the same complement up to rounding.
        rng = np.random.default_rng(44)
        for n in range(1, 41):
            k = int(rng.integers(1, 5))
            m = random_psd(rng, n + k)
            scale = float(np.max(np.abs(m)))
            a, b, c = m[:k, :k], m[k:, :k], m[k:, k:]
            got = from_lower(linalg.cholesky_complement(a, b, c, scale))
            assert np.max(np.abs(got - cho_solve_complement(a, b, c, scale))) <= 1e-14 * scale

    def test_singular_block_takes_the_jitter_retry(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 12):
            c = random_psd(rng, n, rank=n - 1)
            c[:, -1] = c[-1, :] = 0.0  # exactly singular: the first potrf fails
            b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            a = random_psd(rng, 2)
            with pytest.raises(np.linalg.LinAlgError):
                cho_factor(c, lower=True)
            np.testing.assert_array_equal(
                np.tril(linalg.cholesky_complement(a, b, c, 3.0)), cho_complement_reference(a, b, c, 3.0)
            )

    def test_indefinite_block_raises(self):
        rng = np.random.default_rng(43)
        c = random_hermitian(rng, 6) - 10.0 * np.eye(6)
        b = rng.standard_normal((6, 1)) + 0j
        with pytest.raises(NotPSDError, match="not positive definite"):
            linalg.cholesky_complement(np.eye(1), b, c, 1.0)
        with pytest.raises(NotPSDError):
            cho_complement_reference(np.eye(1), b, c, 1.0)

    def test_nonfinite_entries_raise_value_error(self):
        c, b = np.eye(3, dtype=complex), np.ones((3, 1), dtype=complex)
        nan_c, nan_b = c.copy(), b.copy()
        nan_c[1, 0] = nan_b[2, 0] = np.nan
        for cc, bb in [(nan_c, b), (c, nan_b)]:
            with pytest.raises(ValueError, match="infs or NaNs"):
                linalg.cholesky_complement(np.eye(1), bb, cc, 1.0)
            with pytest.raises(ValueError, match="infs or NaNs"):
                cho_complement_reference(np.eye(1), bb, cc, 1.0)


def hermitian_band(rng, n, bw):
    # Lower band storage ab[i, j] = H[i + j, j] of a Hermitian positive
    # definite H with bw subdiagonals (diagonally dominant), zero where
    # i + j >= n, as factor1d._banded_lower leaves it.
    ab = np.zeros((bw + 1, n), dtype=complex)
    ab[1:] = rng.random((bw, n)) - 0.5 + 1j * (rng.random((bw, n)) - 0.5)  # |entry| < 1
    ab[0] = 2.0 * bw + 1.0 + rng.random(n)
    for i in range(1, bw + 1):
        ab[i, n - i :] = 0.0
    return ab


class TestSolvehBanded:
    # linalg.solveh_banded calls LAPACK pbsv itself at every bandwidth; it
    # must agree bit for bit with scipy's pbtrf and pbtrs, which pbsv runs.
    @pytest.mark.parametrize("bw", [0, 1, 2, 5])  # bw = 1: the two-row band
    def test_matches_scipy_bit_for_bit(self, bw):
        rng = np.random.default_rng(50 + bw)
        for n in (bw + 1, bw + 2, 7, 30):  # from the smallest order with bw subdiagonals
            ab = hermitian_band(rng, n, bw)
            for shape in ((n,), (n, 3)):
                b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                kept = ab.copy(), b.copy()
                got = linalg.solveh_banded(ab, b, lower=True)
                chol = scipy.linalg.cholesky_banded(ab, lower=True)
                want = scipy.linalg.cho_solve_banded((chol, True), b)
                assert got.shape == want.shape == shape
                assert got.tobytes() == want.tobytes()
                np.testing.assert_array_equal(ab, kept[0])  # inputs are not overwritten
                np.testing.assert_array_equal(b, kept[1])

    @pytest.mark.parametrize("bw", [1, 3])
    def test_not_positive_definite_raises_scipys_error(self, bw):
        ab = hermitian_band(np.random.default_rng(60 + bw), 6, bw)
        ab[0, 3] = -1.0
        b = np.ones(6, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError) as want:
            scipy.linalg.solveh_banded(ab, b, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            linalg.solveh_banded(ab, b, lower=True)
        assert str(got.value) == str(want.value) == "4th leading minor not positive definite"

    @pytest.mark.parametrize("bw", [1, 3])
    def test_nonfinite_input_raises_value_error(self, bw):
        ab, b = hermitian_band(np.random.default_rng(70 + bw), 5, bw), np.ones((5, 2), dtype=complex)
        nan_ab, nan_b = ab.copy(), b.copy()
        nan_ab[1, 2], nan_b[4, 1] = np.nan, complex(0.0, np.inf)
        for aa, bb in [(nan_ab, b), (ab, nan_b)]:
            for solve in (linalg.solveh_banded, scipy.linalg.solveh_banded):
                with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                    solve(aa, bb, lower=True)

    def test_only_lower_storage(self):
        ab = hermitian_band(np.random.default_rng(80), 4, 2)
        with pytest.raises(ValueError, match="lower=True"):
            linalg.solveh_banded(ab, np.ones(4), lower=False)


class TestValuesOnlyEigensolve:
    def test_equals_eigvalsh_of_the_hermitian_part(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 5, 15, 16, 33):
            h = random_hermitian(rng, n)
            h += 1e-13 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            pair = eig_hermitian(h, vectors=False)
            assert pair.basis is None
            np.testing.assert_array_equal(pair.values, np.linalg.eigvalsh((h + h.conj().T) / 2))

    def test_same_checks_as_the_full_solve(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=False)
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]), vectors=False)


SCALES = (1e-300, 1e-12, 1.0, 1e12, 1e300)


class TestCheckHermitian:
    def test_messages(self):
        cases = [
            (np.ones((2, 3)), "must be square"),
            (np.zeros((0, 0)), "nonempty 2-d"),
            (np.ones(3), "nonempty 2-d"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "NaN or infinite"),
            (np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]]), "NaN or infinite"),
            (np.array([[1.0, 2.0, np.nan]]), "NaN or infinite"),  # before squareness
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
        ]
        # The bound is relative, HERMITIAN_TOL * max|H|, at every scale.
        cases += [(s * np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian") for s in SCALES]
        for h, message in cases:
            with pytest.raises(ValueError, match=message):
                check_hermitian(h)

    def test_returns_the_exact_hermitian_part(self):
        h = np.array([[1.0, 2.0 + 1e-12j], [2.0, 3.0 - 1e-13j]])
        np.testing.assert_array_equal(check_hermitian(h), (h + h.conj().T) / 2)
        for s in SCALES:  # an exactly Hermitian matrix of normal-range entries passes unchanged
            h = s * np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.5]])
            np.testing.assert_array_equal(check_hermitian(h), h)
        # Halving before adding rounds a subnormal half: the one input it changes.
        np.testing.assert_array_equal(check_hermitian([[5e-324]]), [[0.0]])


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

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_inconsistent_system_raises_at_any_scale(self, k):
        # at 2^1000 both norms once overflowed to inf, and inf > inf passed
        rstar = np.diag([1.0, 0.0]) * 2.0**k
        b = np.array([[0.0], [1.0]]) * 2.0**k
        with pytest.raises(InconsistentSystemError) as err:
            range_restricted_solve(rstar, b)
        assert err.value.residual == 2.0**k

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_consistent_system_passes_at_any_scale(self, k):
        rng = np.random.default_rng(52)
        rstar = random_psd(rng, 3, rank=2) * 2.0**k
        b = rstar @ (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        x = range_restricted_solve(rstar, b)
        assert np.max(np.abs(rstar @ x - b)) <= 1e-12 * np.max(np.abs(b))
