import math
import os
import tracemalloc

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
    block_toeplitz,
)
from reference import end_complement, laurent_stack, raw_truncation, toeplitz_entries

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
        # N = k + 1: the truncation is its own corner and is checked too.
        for q, k in ((scalar_laurent({0: -1.0}), 0), (scalar_laurent({0: 1.0, 1: 2.0}), 1)):
            with pytest.raises(NotNonnegativeError, match=f"witness at truncation N = {k + 1}:"):
                truncated_schur(q, k, k + 1)

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

    def test_slow_convergence_returns_unconverged(self):
        q = scalar_laurent({0: 2.0, 1: 1.0})  # boundary zero at z = -1
        res = schur_limit(q, 0, n_max=64)
        assert res.gap > 0
        assert res.value.shape == (1, 1)
        assert not res.converged
        assert res.reason == (f"slow Schur convergence: gap {res.gap:.3e} at block cap N = 64 "
                              "(expected near boundary zeros of Q)")

    def test_every_short_stop_returns_its_reason(self, monkeypatch):
        # The block cap, a floored join and a join witness the banded
        # truncation does not confirm each return the last corner unconverged,
        # its reason the one factor reports (a degraded limit is never
        # backward-checked).
        ridged, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        for q, target, name, stand_in, n_used, cause in (
            (scalar_laurent({0: 2.0, 1: 1.0}), None, None, None, 4096, "at block cap N = 4096"),
            (ridged, linalg, "cholesky_complement", floored, 8,
             "at N = 8: conditioning floor at truncation N = 16 (eliminated block eigenvalue"),
            (ridged, factor1d, "_join", witness_at_64, 32,
             "at N = 32: conditioning floor, unconfirmed: witness at truncation N = 64"),
        ):
            with monkeypatch.context() as patch:
                if target is not None:
                    patch.setattr(target, name, stand_in)
                res = schur_limit(q, q.degree)
                _, rep = factor(q)
            assert not res.converged and res.n_used == n_used
            assert res.reason.startswith(f"slow Schur convergence: gap {res.gap:.3e} {cause}")
            assert not rep.converged and rep.degraded_reason == res.reason

    def test_memory_budget_stops_doubling(self, monkeypatch):
        # The whole price from n0 decides: one byte below it the limit is
        # refused before it runs, with the price and n0 in the message, from
        # schur_limit and factor alike; at the price exactly it runs to
        # convergence.
        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        m = q.degree
        n0 = 2 * (m + 1)
        need = factor1d.limit_bytes(q, m, n0)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        for run in (lambda: schur_limit(q, m), lambda: factor(q)):
            with pytest.raises(SchurConvergenceError) as err:
                run()
            assert f"from N = {n0} would need about {need:.3e} B" in str(err.value)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need)
        assert schur_limit(q, m).converged
        _, rep = factor(q)
        assert rep.converged and rep.n_used > n0

    def test_memory_budget_refuses_the_start(self, monkeypatch, capsys, tmp_path):
        # One byte below the price from n0 = 8 (950,272 B here) the limit is
        # refused before it runs: no large array, one message in
        # schur_limit, factor and the CLI alike, and no factor file.  At that
        # price exactly, the limit runs to convergence.
        import json

        from specfactor import cli
        from specfactor.poly import save_poly

        q, _ = corpus.ridged_instance(np.random.default_rng(5), 8, 3)
        need = factor1d.limit_bytes(q, 3, 8)
        assert need == 950_272
        message = (f"S(3) not computed: its Schur limit from N = 8 would need about {need:.3e} B, "
                   f"over the memory budget of {need - 1:.3e} B")
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SchurConvergenceError) as err:
                schur_limit(q, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert str(err.value) == message
        with pytest.raises(SchurConvergenceError) as err:
            factor(q)
        assert str(err.value) == message
        path = tmp_path / "ridged.json"
        save_poly(path, q)
        code = cli.main(["factor", str(path)])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": message}
        assert not (tmp_path / "ridged.json.factor.json").exists()
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need)
        assert schur_limit(q, 3).converged

    def test_memory_budget_never_refuses_a_join(self, monkeypatch):
        # The joins' arrays are 2b-block squares at every N: a budget that
        # admits the first doubling lets the limit run past 8 n0.
        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        m = q.degree
        n0 = 2 * (m + 1)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", factor1d.limit_bytes(q, m, n0))
        res = schur_limit(q, m)
        assert res.converged
        assert res.n_used > 8 * n0

    def test_a_refused_first_doubling_builds_no_chain(self, monkeypatch):
        # Refused by the budget, the limit builds neither its start's banded
        # truncation, nor the raw truncation its chain of joins starts
        # from, nor the join workspace.
        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        built = []
        for name in ("truncated_schur", "block_toeplitz", "_join_workspace"):
            monkeypatch.setattr(factor1d, name, lambda *args: built.append(args))
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", factor1d.limit_bytes(q, 3, 8) - 1)
        with pytest.raises(SchurConvergenceError, match="over the memory budget"):
            schur_limit(q, 3)
        assert built == []

    @pytest.mark.parametrize("r, m", [(2, 3), (17, 1)])
    def test_price_covers_the_traced_peak(self, r, m, monkeypatch):
        # limit_bytes against what the limit allocates from its two starts,
        # 2b and b: each phase against its term, the joins' 16 * 11 w^2 (w =
        # 2br) along the chain from the raw 2b-block truncation up to 16b and
        # truncated_schur the rest, at either start and at N = 64 (a witness
        # confirmation), each with the 64 KiB of interpreter objects, and the
        # whole limit up to 8 n0 against the sum.
        q, _ = corpus.ridged_instance(np.random.default_rng(7), r, m)
        b = m + 1

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def joins():
            h, n_blocks = block_toeplitz(q, 2 * b), 2 * b
            work = factor1d._join_workspace(h)
            while n_blocks < 16 * b:
                n_blocks *= 2
                h = factor1d._join(h, q.scale, n_blocks, work)

        joined = 16 * 11 * (2 * b * r) ** 2
        assert traced_peak(joins) <= joined + 2**16
        for n_blocks in (b, 2 * b, 64):
            price = factor1d.limit_bytes(q, m, n_blocks)
            assert traced_peak(lambda: truncated_schur(q, m, n_blocks)) <= price - joined
        for fallback, n0 in ((True, b), (False, 2 * b)):
            start_at(monkeypatch, fallback)
            price = factor1d.limit_bytes(q, m, n0)
            assert traced_peak(lambda: schur_limit(q, m, n_max=8 * n0)) <= price

    def test_values_leave_the_limit_exactly_hermitian(self):
        # Inside the limit only lower triangles are kept; its value, converged
        # or not, and truncated_schur are exactly Hermitian.
        rng = np.random.default_rng(8)
        for q in (corpus.ridged_instance(rng, 3, 2)[0], boundary_instance(rng, 2, 2)):
            for s in (schur_limit(q, 2).value, schur_limit(q, 2, n_max=32).value,
                      truncated_schur(q, 2, 24)):
                np.testing.assert_array_equal(s, s.conj().T)

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


START_BLOCKS = factor1d.start_blocks
JOIN = factor1d._join


def floored(a, b, c, scale):
    # A stand-in for linalg.cholesky_complement that fails every
    # elimination: on a valid input each is a conditioning floor.
    raise linalg.NotPSDError("not positive definite")


def witness_at_64(h, scale, n_blocks, work):
    # A stand-in for factor1d._join whose join at N = 64 finds a witness.
    if n_blocks == 64:
        raise NotNonnegativeError("witness at truncation N = 64", min_eig=-1.0, n_blocks=64)
    return JOIN(h, scale, n_blocks, work)


def start_at(monkeypatch, fallback):
    # schur_limit has no start option: with fallback, start_blocks is set
    # to b = max(k + 1, m), the start of a cap below 4b, at every cap;
    # without, the default start (2b, or b when 4b > n_max) is restored.
    start = (lambda m, k, n_max: max(k + 1, m)) if fallback else START_BLOCKS
    monkeypatch.setattr(factor1d, "start_blocks", start)


class TestSegmentDoubling:
    def test_matches_direct_truncation(self, monkeypatch):
        # k < m, k = m and k > m, from the default start 2b, b = max(k + 1,
        # m), and from the fallback start b, whose first doubling joins
        # nothing.
        rng = np.random.default_rng(505)
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                for q in (corpus.ridged_instance(rng, r, m)[0], boundary_instance(rng, r, m)):
                    for k in sorted({0, m - 1, m, m + 1}):
                        for fallback in (False, True):
                            start_at(monkeypatch, fallback)
                            res = schur_limit(q, k, n_max=512)
                            assert res.n_used in {max(k + 1, m) * 2**j for j in range(10)}
                            direct = truncated_schur(q, k, res.n_used)
                            assert np.max(np.abs(res.value - direct)) <= 1e-10 * q.scale

    def test_start_is_on_the_chain(self, monkeypatch):
        # b = max(k + 1, m): the start is 2b, the raw truncation the joins
        # start from, unless 4b > n_max, where it is b; so the start of
        # factor (k = m) is 2(m + 1) whenever n_max >= 4(m + 1).  The limit
        # is priced from there: one byte below its price, the refusal names it.
        rng = np.random.default_rng(506)
        for m in range(1, 6):
            q, _ = corpus.ridged_instance(rng, 1, m)
            for k in (m - 1, m, m + 1):
                b = max(k + 1, m)
                for n_max in (2 * b, 3 * b, 4 * b, 8 * (m + 1), 4096):
                    start = factor1d.start_blocks(m, k, n_max)
                    assert start == (b if 4 * b > n_max else 2 * b)
                    if k == m and n_max >= 4 * (m + 1):
                        assert start == 2 * (m + 1)
                    monkeypatch.setattr(factor1d, "MEMORY_BUDGET",
                                        factor1d.limit_bytes(q, k, start) - 1)
                    with pytest.raises(SchurConvergenceError, match=f"from N = {start} would"):
                        schur_limit(q, k, n_max=n_max)

    def test_one_join_per_doubling(self, monkeypatch):
        # From n0 = 2b, whose corner truncated_schur checks, every doubling
        # is one join and one checked corner at its own N: b = 2 for |1+z|^2
        # up to the default cap, and b = 5 for a ridged input that converges
        # at N = 160.
        steps, join, corner = [], factor1d._join, factor1d._checked_corner

        def joined(h, scale, n_blocks, work):
            steps.append(("join", n_blocks))
            return join(h, scale, n_blocks, work)

        def checked(s, n_blocks):
            steps.append(("corner", n_blocks))
            return corner(s, n_blocks)

        monkeypatch.setattr(factor1d, "_join", joined)
        monkeypatch.setattr(factor1d, "_checked_corner", checked)
        for q, k, n0, n_used in ((scalar_laurent({0: 2.0, 1: 1.0}), 1, 4, 4096),
                                 (corpus.ridged_instance(np.random.default_rng(0), 3, 4)[0], 4, 10, 160)):
            steps.clear()
            assert schur_limit(q, k).n_used == n_used
            doublings = [n0 * 2**j for j in range(1, n_used.bit_length() - n0.bit_length() + 1)]
            assert doublings[-1] == n_used
            assert steps == [("corner", n0)] + [(what, n) for n in doublings for what in ("join", "corner")]

    def test_the_smallest_cap_doubles_once_without_a_join(self, monkeypatch):
        # At n_max = 2(m + 1), below 4b, factor starts at b and doubles once,
        # to the raw 2b-block truncation, whose corner it takes as it is.
        joins, join = [], factor1d._join
        monkeypatch.setattr(factor1d, "_join", lambda *args: joins.append(args) or join(*args))
        rng = np.random.default_rng(507)
        for r, m in ((1, 1), (2, 2), (3, 3)):
            q, _ = corpus.ridged_instance(rng, r, m)
            _, rep = factor(q, n_max=2 * (m + 1))
            assert rep.n_used == 2 * (m + 1) and 0 < rep.gap < np.inf
            assert "block cap" in rep.degraded_reason
            res = schur_limit(q, m, n_max=2 * (m + 1))
            direct = truncated_schur(q, m, 2 * (m + 1))
            assert np.max(np.abs(res.value - direct)) <= 1e-12 * q.scale
        assert joins == []

    @pytest.mark.parametrize("eps, n_blocks", [(1e-3, 128), (1e-5, 1024), (1e-6, 4096)])
    def test_witness_found_through_a_join(self, eps, n_blocks):
        # 1 - eps + cos(theta) dips below zero; the truncations first stop
        # being PSD at N = n_blocks, past the one banded doubling (N = 16).
        q = scalar_laurent({0: 1.0 - eps, 1: 0.5})
        with pytest.raises(NotNonnegativeError, match="witness at truncation") as err:
            schur_limit(q, 1)
        assert err.value.n_blocks == n_blocks

    def test_conditioning_floor_ends_degraded(self):
        # Past N = 2^30 the joins of |1+z|^2 are PSD only to working
        # precision.  Whether the last doublings stop at the floor or close
        # the gap is up to rounding; either way there is no witness, a stop
        # is labelled, and a converged report is backward stable.
        q = scalar_laurent({0: 2.0, 1: 1.0})
        res = schur_limit(q, 1, n_max=2**32)
        assert res.n_used >= 2**30 and 0 <= res.gap < 1e-8
        _, rep = factor(q, n_max=2**32)
        assert (rep.n_used, rep.gap, rep.converged) == (res.n_used, res.gap, res.converged)
        if rep.converged:
            assert rep.residual_sup <= factor1d.BACKWARD_TOL * q.scale
        else:
            assert "conditioning floor" in rep.degraded_reason

    def test_a_first_doubling_at_the_floor_keeps_the_start(self, monkeypatch):
        # A floor in the first doubling's join returns the n0 corner,
        # truncated_schur's, unconverged with gap = inf.
        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        start = truncated_schur(q, 3, 8)
        monkeypatch.setattr(linalg, "cholesky_complement", floored)
        res = schur_limit(q, 3)
        assert not res.converged and "conditioning floor at truncation N = " in res.reason
        assert res.n_used == 8 and res.gap == np.inf
        np.testing.assert_array_equal(res.value, start)
        _, rep = factor(q)
        assert not rep.converged and rep.n_used == 8 and rep.gap == np.inf

    def test_a_witness_the_truncation_does_not_confirm_is_a_floor(self, monkeypatch):
        # A join witness at N = 64 on a valid input: truncated_schur(q, k, 64)
        # is PSD, so the limit stops at the floor, returning its N = 32 corner.
        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        monkeypatch.setattr(factor1d, "_join", witness_at_64)
        res = schur_limit(q, 3)
        assert not res.converged
        assert "at N = 32: conditioning floor, unconfirmed: witness at truncation N = 64" in res.reason
        assert res.n_used == 32 and 0 < res.gap < np.inf

    def test_a_witness_is_confirmed_only_within_the_budget(self, monkeypatch):
        # The negative input's witness at N = 128 stands when truncated_schur
        # at 128 fits the budget, and is a floor stop at N = 64 when it does not.
        q = scalar_laurent({0: 2.0 - 1e-3, 1: 1.0})
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", factor1d.limit_bytes(q, 1, 128))
        with pytest.raises(NotNonnegativeError, match="witness at truncation N = 128"):
            schur_limit(q, 1)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", factor1d.limit_bytes(q, 1, 128) - 1)
        res = schur_limit(q, 1)
        assert not res.converged
        assert "at N = 64: conditioning floor, unconfirmed: Q not nonnegative" in res.reason
        assert res.n_used == 64

    @pytest.mark.parametrize("n_max", [4096, 2**20])
    def test_rank_deficient_inputs_converge(self, n_max):
        # Valid inputs whose eliminated middle blocks are singular (condition
        # numbers about 1e13): a stop rule reading cond(M) must not cut them
        # short.  Q = P*P with P = v v^T (2 + z), v = [1 1]^T / sqrt(2), and
        # diag(5 + 2z + 2/z, 0).
        vv = np.full((2, 2), 0.5)
        for q in (
            adjoint_product(MatrixAnalyticPoly1([2 * vv, vv])),
            MatrixLaurentPoly1.from_causal(2, {0: np.diag([5.0, 0.0]), 1: np.diag([2.0, 0.0])}),
        ):
            _, rep = factor(q, n_max=n_max)
            assert rep.converged and rep.n_used == 64
            assert rep.residual_sup <= 1e-12 * q.scale
            assert "conditioning floor" not in rep.degraded_reason

    def test_negative_input_is_still_a_witness_at_any_cap(self):
        q = scalar_laurent({0: 2.0 - 1e-3, 1: 1.0})
        for n_max in (4096, 2**32):
            with pytest.raises(NotNonnegativeError, match="witness at truncation") as err:
                schur_limit(q, 1, n_max=n_max)
            assert err.value.n_blocks == 128
            assert err.value.min_eig < -factor1d.TRUNCATION_PSD_TOL * q.scale

    def test_boundary_zero_degraded_gap(self):
        _, rep = factor(scalar_laurent({0: 2.0, 1: 1.0}))  # |1 + z|^2
        assert not rep.converged
        assert rep.n_used == 4096
        assert rep.gap == pytest.approx(2.443e-4, rel=1e-3)

    def test_one_banded_solve_per_limit(self, monkeypatch):
        # The n0 truncation is the one banded solve; the ten doublings up to
        # N = 4096 are small dense joins.
        calls = []
        banded = factor1d.solveh_banded

        def counted(*args, **kwargs):
            calls.append(len(args[0][0]))
            return banded(*args, **kwargs)

        monkeypatch.setattr(factor1d, "solveh_banded", counted)
        res = schur_limit(scalar_laurent({0: 2.0, 1: 1.0}), 1)
        assert res.n_used == 4096
        assert calls == [2]  # the 2 blocks of the n0 = 4 truncation past its corner

    def test_one_kernel_for_joins_corners_and_schur_complement(self, monkeypatch):
        # Up to N = 4096 from n0 = 4 (b = 2): ten joins and ten corner
        # complements (N = 8 ... 4096), one each a doubling, and the public
        # schur_complement, all through linalg.cholesky_complement.
        calls = []
        kernel = linalg.cholesky_complement

        def counted(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(linalg, "cholesky_complement", counted)
        res = schur_limit(scalar_laurent({0: 2.0, 1: 1.0}), 1)
        assert res.n_used == 4096
        assert len(calls) == 20
        calls.clear()
        linalg.schur_complement(np.eye(3), 1)
        assert calls == [2]


    def test_kernel_counts_of_the_limit(self, monkeypatch):
        # |1+z|^2 up to N = 4096 from n0 = 4: 31 potrf calls (ten joins, ten
        # corners and eleven corner PSD verdicts, for n0 and the ten
        # doublings), none failing, so no jitter retry;
        # no eigensolve through eig_hermitian, the gaps calling eigvalsh directly.
        factorizations, solves = [], []
        potrf, eig = linalg._potrf, linalg.eig_hermitian

        def counted_potrf(*args, **kwargs):
            out = potrf(*args, **kwargs)
            factorizations.append(out[1])
            return out

        def counted_eig(h, *, vectors=True):
            solves.append(vectors)
            return eig(h, vectors=vectors)

        monkeypatch.setattr(linalg, "_potrf", counted_potrf)
        monkeypatch.setattr(linalg, "eig_hermitian", counted_eig)
        res = schur_limit(scalar_laurent({0: 2.0, 1: 1.0}), 1)
        assert res.n_used == 4096
        assert factorizations == [0] * 31
        assert solves == []


def binomial_square(p):
    # |1 + z|^(2p) = P*P for P = (1 + z)^p: a zero of order 2p at z = -1.
    return adjoint_product(scalar_analytic([math.comb(p, k) for k in range(p + 1)]))


class TestBackwardStable:
    def test_a_converged_limit_with_a_large_residual_is_degraded(self):
        # The gap of |1+z|^8 closes at N = 5120 (9e-14 * scale), but the
        # factor's residual is 3.4e-5 * scale: converged means backward stable.
        q = binomial_square(4)
        res = schur_limit(q, 4, n_max=2**32)
        assert res.converged and res.n_used == 5120
        _, rep = factor(q, n_max=2**32)
        assert rep.residual_sup > 1e-6 * q.scale
        assert not rep.converged and (rep.n_used, rep.gap) == (res.n_used, res.gap)
        assert rep.degraded_reason == (
            f"residual {rep.residual_sup:.3e} above 1e-08 * scale"
        )
        assert "residual_sup" in rep.to_json() and "degraded_reason" not in rep.to_json()

    def test_a_backward_stable_limit_stays_converged(self):
        # |1+z|^2 ... |1+z|^8 at n_max = 2^32: no valid input is rejected, a
        # limit that converged with a residual within BACKWARD_TOL * scale
        # stays converged with no reason, and one that did not is degraded
        # with its limit's reason or its residual.
        converged = 0
        for p in (1, 2, 3, 4):
            q = binomial_square(p)
            res = schur_limit(q, p, n_max=2**32)
            _, rep = factor(q, n_max=2**32)
            assert (rep.n_used, rep.gap) == (res.n_used, res.gap)
            stable = rep.residual_sup <= factor1d.BACKWARD_TOL * q.scale
            assert rep.converged == (res.converged and stable)
            assert (rep.degraded_reason == "") == rep.converged
            converged += rep.converged
        assert converged >= 1

    def test_unconverged_limits_keep_their_reason(self):
        # |1+z|^2, ^4, ^6 and ^8 at the default cap stop unconverged, with
        # the limit's reason and gap as before.
        for p in (1, 2, 3, 4):
            _, rep = factor(binomial_square(p))
            assert not rep.converged and rep.degraded_reason.startswith("slow Schur convergence")

    def test_the_bound(self):
        # 100 conv_tol, the CLI's default --tol and the benchmark's residual tolerance.
        assert factor1d.BACKWARD_TOL == 100 * factor1d.DEFAULT_CONV_TOL == 1e-8
        cases = [  # converged and reason before, residual, converged and reason after
            (True, "", 1e-8, True, ""),
            (True, "", math.nan, True, ""),  # the residual the lift skips
            (True, "", 2e-8, False, "residual 2.000e-08 above 1e-08 * scale"),
            (False, "cap", 1.0, False, "cap"),
        ]
        for converged, reason, resid, converged_after, reason_after in cases:
            rep = factor1d.FactorReport(resid, "verified", 8, converged=converged,
                                        degraded_reason=reason)
            assert factor1d.backward_checked(rep, 1.0) is rep
            assert (rep.converged, rep.degraded_reason) == (converged_after, reason_after)


def banded_reference(q, n_blocks):
    # Lower band storage read off the dense truncation, one diagonal at a time.
    t = block_toeplitz(q, n_blocks)
    dim = len(t)
    bw = min((q.degree + 1) * q.size - 1, dim - 1)
    ab = np.zeros((bw + 1, dim), dtype=complex)
    for i in range(bw + 1):
        ab[i, : dim - i] = np.diagonal(t, -i)
    return ab


def lead_complement(t, n, scale, n_blocks):
    # Complement (lower triangle) of t on its leading n coordinates, as the
    # limit forms its corners.
    return factor1d._complement(t[:n, :n], t[n:, :n], t[n:, n:], scale, n_blocks)


def join_reference(h, c, scale, n_blocks):
    # The join of two copies of the segment h as one 4 x 4 block matrix,
    # complemented on its leading half, from the Hermitian segment.
    w = len(h) // 2
    h = linalg.from_lower(h)
    e, f, g, z = h[:w, :w], h[:w, w:], h[w:, w:], np.zeros((w, w))
    # Rows and columns: kept E, G, then eliminated G, E.
    t = np.block([[e, z, f, z], [z, g, z, f.conj().T], [f.conj().T, z, g, c],
                  [z, f, c.conj().T, e]])
    return lead_complement(t, 2 * w, scale, n_blocks)


def limit_reference(q, k, n_max):
    # The doubling from the same per-doubling helpers, with a validated
    # eigensolve for every corner PSD verdict and every gap.
    m, r = q.degree, q.size
    b, scale = max(k + 1, m), max(q.scale, 1e-300)
    h = raw_truncation(laurent_stack(q.coeff, m), 2 * b)
    n, span, gap = factor1d.start_blocks(m, k, n_max), 2 * b, math.inf
    work = factor1d._join_workspace(h)
    s_prev = truncated_schur(q, k, n)
    while True:
        assert linalg.psd_check(s_prev, tol=factor1d.TRUNCATION_PSD_TOL).ok
        if 2 * n > n_max or gap <= factor1d.DEFAULT_CONV_TOL * scale:
            return s_prev, n, gap
        n *= 2
        while span < n:
            span *= 2
            h = factor1d._join(h, scale, span, work)
        s = linalg.from_lower(lead_complement(h, (k + 1) * r, scale, n))
        d = s_prev - s
        vals = linalg.eig_hermitian((d + d.conj().T) / 2, vectors=False).values
        gap, s_prev = float(max(abs(vals[0]), abs(vals[-1]))), s


class TestCholeskyVerdicts:
    def test_failing_corner_raises_the_eigenvalue_witness(self):
        # A corner the Cholesky cannot pass is decided by psd_check: the
        # same message and min_eig as an eigensolve-only verdict.
        rng = np.random.default_rng(61)
        tol = factor1d.TRUNCATION_PSD_TOL
        for vals in ([1.0, -1e-3], [-tol * (1 + 1e-3), 0.3, 1.0], [-tol * (1 - 1e-3), 0.3, 1.0]):
            u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            s = (u[:, : len(vals)] * vals) @ u[:, : len(vals)].conj().T
            s = (s + s.conj().T) / 2
            ok, lo = linalg.psd_check(s, tol=tol)
            if ok:
                assert factor1d._checked_corner(s, 64) is s
                continue
            with pytest.raises(NotNonnegativeError) as err:
                factor1d._checked_corner(s, 64)
            assert str(err.value) == (
                f"Q not nonnegative on circle (witness at truncation N = 64: "
                f"corner complement eigenvalue {lo:.6e})"
            )
            assert err.value.min_eig == lo
            assert err.value.n_blocks == 64

    def test_gaps_solved_only_to_decide_or_report(self, monkeypatch):
        # max|D_ii| <= ||D||_2: |1+z|^2 up to the cap N = 4096 solves only
        # the reported gap (nine doublings), and factor on a ridged input
        # converging at N = 160 from n0 = 10 makes three eigvalsh calls in all.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        res = schur_limit(scalar_laurent({0: 2.0, 1: 1.0}), 1)
        assert (res.n_used, calls) == (4096, [2])  # one 2 x 2 gap
        assert res.gap == pytest.approx(2.443e-4, rel=1e-3)
        calls.clear()
        q, _ = corpus.ridged_instance(np.random.default_rng(0), 3, 4)
        _, rep = factor(q)
        assert rep.converged and rep.n_used == 160
        assert len(calls) == 3

    def test_gap_norm_matches_the_validated_eigensolve(self):
        rng = np.random.default_rng(62)
        for r in (1, 2, 3):
            for q in (corpus.ridged_instance(rng, r, 2)[0], boundary_instance(rng, r, 2)):
                for n in (4, 8, 16):
                    a, b = truncated_schur(q, 2, n), truncated_schur(q, 2, 2 * n)
                    d = a - b
                    vals = linalg.eig_hermitian((d + d.conj().T) / 2, vectors=False).values
                    assert factor1d._gap_norm(a, b) == max(abs(vals[0]), abs(vals[-1]))

    def test_limit_matches_the_eigenvalue_reference(self):
        # Bit for bit: value, N_used and gap, converged or at the cap.
        rng = np.random.default_rng(63)
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                for q in (corpus.ridged_instance(rng, r, m)[0], boundary_instance(rng, r, m)):
                    for k in sorted({m - 1, m}):
                        res = schur_limit(q, k, n_max=512)
                        value, n_used, gap = limit_reference(q, k, 512)
                        np.testing.assert_array_equal(res.value, value)
                        assert (res.n_used, res.gap) == (n_used, gap)


class TestEliminationStorage:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_banded_lower_matches_the_diagonals(self, r, m):
        q, _ = corpus.ridged_instance(np.random.default_rng(10 * r + m), r, m)
        stack = laurent_stack(q.coeff, q.degree)
        for n_blocks in range(1, 3 * (m + 1) + 1):  # from dim - 1 < bw up to 3b
            np.testing.assert_array_equal(
                factor1d._banded_lower(stack, n_blocks), banded_reference(q, n_blocks)
            )

    @pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 3)])
    def test_join_matches_the_block_formula(self, r, m):
        # Two copies of one segment, from the raw 2b-block truncation, a full
        # matrix, on along the chain; the join reads the lower triangles, so
        # its F* is the lower block of the segment.
        rng = np.random.default_rng(20 + r)
        for q in (corpus.ridged_instance(rng, r, m)[0], boundary_instance(rng, r, m)):
            b, scale = m, q.scale
            stack = laurent_stack(q.coeff, q.degree)
            c = toeplitz_entries(stack, np.arange(b * r)[:, None], np.arange(b * r, 2 * b * r))
            h = raw_truncation(stack, 2 * b)
            work = factor1d._join_workspace(h)
            for n_blocks in (4 * b, 8 * b, 16 * b, 32 * b):
                joined = factor1d._join(h, scale, n_blocks, work)
                want = join_reference(h, c, scale, n_blocks)
                np.testing.assert_array_equal(np.tril(joined), np.tril(want))
                h = joined

    @pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 3)])
    def test_start_matches_the_banded_end_complement(self, r, m):
        # The chain of joins from the raw 2b-block truncation, at N = b 2^j,
        # j = 1..5, against the end-block complement from one dense solve.
        q, _ = corpus.ridged_instance(np.random.default_rng(30 + r), r, m)
        b, scale = m, q.scale
        stack = laurent_stack(q.coeff, q.degree)
        h = block_toeplitz(q, 2 * b)
        work = factor1d._join_workspace(h)
        for j in range(1, 6):
            if j > 1:
                h = factor1d._join(h, scale, b * 2**j, work)
            want = end_complement(stack, b, b * 2**j)
            assert np.max(np.abs(linalg.from_lower(h) - want)) <= 1e-12 * scale


class TestMemoryBudget:
    def fake_limit(self, monkeypatch, soft):
        monkeypatch.setattr(
            factor1d.resource, "getrlimit", lambda which: (soft, factor1d.resource.RLIM_INFINITY)
        )

    def test_half_the_physical_memory_without_an_address_space_limit(self, monkeypatch):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
        self.fake_limit(monkeypatch, factor1d.resource.RLIM_INFINITY)
        assert factor1d.memory_budget() == physical
        self.fake_limit(monkeypatch, 4 * physical)
        assert factor1d.memory_budget() == physical

    def test_half_a_smaller_soft_address_space_limit(self, monkeypatch):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
        self.fake_limit(monkeypatch, physical + 1)
        assert factor1d.memory_budget() == physical // 2


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

    def test_gauge_uniqueness_across_truncation_starts(self, monkeypatch):
        # The two starts on the chain of b = 4, N = 4 and N = 8, set through
        # start_blocks: factor has no start option.
        rng = np.random.default_rng(77)
        for _ in range(5):
            q, _ = corpus.ridged_instance(rng, 2, 3)
            factors = []
            for fallback in (True, False):
                start_at(monkeypatch, fallback)
                factors.append(factor(q)[0])
            assert coeff_diff(*factors) <= 1e-6 * q.scale

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
        res = schur_limit(q, 1, n_max=256)
        assert rep.gap == res.gap
        assert rep.n_used == res.n_used == 256

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
        # Zero, subnormal and large constants through the general root
        # pairing (no roots): exactly the root of the stored Q_0 (5e-324
        # is stored as 0), with a +0.0 imaginary part.
        for q0 in (0.0, 5e-324, 4e-323, 1e-300, 2.5, 1e300):
            q = scalar_laurent({0: q0})
            p = scalar_root_factor(q)
            assert p.degree == 0
            np.testing.assert_array_equal(p.dense.view(float), [[[np.sqrt(q.coeff(0)[0, 0].real), 0.0]]])
            assert not np.signbit(p.dense.view(float)).any()

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


def rescaled(q, s):
    return type(q)(q.size, {k: c * s for k, c in q.coeffs.items()})


class TestAnyScale:
    # A rescaled Q factors like Q.  At 2^-500 the r >= 3 residual sup once
    # raised on an empty prefilter (its Frobenius squares underflowed); at
    # 2^+520 the extension solve's norms overflowed to inf, which both warned
    # and let any residual pass.
    Q, _ = corpus.ridged_instance(np.random.Generator(np.random.PCG64(1)), 3, 2)

    @pytest.mark.parametrize("s", [2.0**-500, 1e-150, 2.0**520], ids=["2^-500", "1e-150", "2^520"])
    def test_same_factorization_at_any_scale(self, s):
        _, want = factor(self.Q)
        _, got = factor(rescaled(self.Q, s))
        assert (got.n_used, got.converged, got.outer_verdict) == (
            want.n_used,
            want.converged,
            want.outer_verdict,
        )
        assert got.residual_sup / (s * self.Q.scale) == pytest.approx(
            want.residual_sup / self.Q.scale, abs=1e-13
        )

    @pytest.mark.parametrize("c0", [1e308, 1.5e308])
    def test_near_the_largest_double(self, c0):
        # c0 + (c0/4)(z + 1/z), a valid input near the top of the range: the
        # Hermitian part of truncated_schur's corner is taken from halves, so
        # it neither overflows (a warning is an error here) nor leaves an
        # inf that rejects the input.
        q = scalar_laurent({0: c0, 1: c0 / 4})
        _, rep = factor(q)
        assert rep.converged and rep.n_used == 32 and rep.outer_verdict == "verified"
        assert rep.residual_sup <= factor1d.BACKWARD_TOL * q.scale
