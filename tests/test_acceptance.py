# Acceptance suite: every criterion runs at its stated tolerance and
# prints one pass/fail line.  Run with `pytest -s tests/test_acceptance.py`
# to see the lines as they complete.

import contextlib
import json
import time

import numpy as np
import pytest

from specfactor import cli, corpus, linalg, verify
from specfactor.factor1d import (
    factor,
    normalize_gauge,
    scalar_root_factor,
    schur_limit,
    truncated_schur,
)
from specfactor.factor2d import cesaro_smooth, factor_cesaro
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    adjoint_product,
    save_poly,
)

SEED_ROUNDTRIP = 20260801
SEED_ORACLE = 20260802
SEED_SCHUR = 20260803
SEED_INHERIT = 20260804
SEED_SOS2 = 20260805


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def coeff_diff(a, b):
    top = max(a.degree, b.degree)
    return max(float(np.max(np.abs(a.coeff(k) - b.coeff(k)))) for k in range(top + 1))


@pytest.fixture(scope="module")
def roundtrip_corpus():
    """50 seeded instances Q = P*P + 0.1*scale*I with their factorizations."""
    rng = corpus.make_rng(SEED_ROUNDTRIP)
    out = []
    start = time.monotonic()
    for _ in range(50):
        r = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        q, p_true = corpus.ridged_instance(rng, r, m, ridge=0.1)
        phat, rep = factor(q)
        out.append((q, phat, rep))
    elapsed = time.monotonic() - start
    return out, elapsed


@pytest.fixture(scope="module")
def oracle_corpus():
    """100 seeded scalar instances built from roots of modulus in [1.05, 3]."""
    rng = corpus.make_rng(SEED_ORACLE)
    out = []
    for _ in range(100):
        m = int(rng.integers(1, 5))
        radii = rng.uniform(1.05, 3.0, size=m)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=m)
        monic = np.poly(radii * np.exp(1j * angles))[::-1]
        q = adjoint_product(MatrixAnalyticPoly1([np.array([[c]]) for c in monic]))
        p_schur = normalize_gauge(factor(q)[0])
        p_root = normalize_gauge(scalar_root_factor(q))
        out.append((q, p_schur, p_root))
    return out


def test_criterion_1_roundtrip(roundtrip_corpus):
    instances, elapsed = roundtrip_corpus
    with criterion(1, "round-trip factorization of 50 ridged random instances"):
        assert len(instances) == 50
        for q, phat, rep in instances:
            assert rep.residual_sup <= 1e-7 * q.scale
        assert elapsed <= 60.0, f"corpus took {elapsed:.1f}s, budget 60s"


def test_criterion_2_exact_small_instances():
    with criterion(2, "exact small instances recover known factors"):
        q = MatrixLaurentPoly1.from_causal(1, {0: [[5.0]], 1: [[2.0]]})
        p, _ = factor(q)
        assert abs(p.coeff(0)[0, 0] - 2.0) <= 1e-8
        assert abs(p.coeff(1)[0, 0] - 1.0) <= 1e-8

        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        q2 = MatrixLaurentPoly1.from_causal(2, {0: np.diag([1.0, 2.0]), 1: e12})
        p2, _ = factor(q2)
        assert np.max(np.abs(p2.coeff(0) - np.eye(2))) <= 1e-7
        assert np.max(np.abs(p2.coeff(1) - e12)) <= 1e-7


def test_criterion_3_oracle_equivalence(oracle_corpus):
    with criterion(3, "Schur and root-pairing factors agree on 100 scalar instances"):
        for q, p_schur, p_root in oracle_corpus:
            assert coeff_diff(p_schur, p_root) <= 1e-6 * q.scale


def test_criterion_4_schur_complement_laws():
    with criterion(4, "Schur complement laws on 200 random PSD matrices"):
        rng = corpus.make_rng(SEED_SCHUR)
        for i in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            full_rank = i % 2 == 0
            rank = n if full_rank else int(rng.integers(1, n + 1))
            g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            m = g @ g.conj().T
            norm = float(np.max(np.abs(np.linalg.eigvalsh(m))))
            s = linalg.schur_complement(m, k)

            diff = m - np.pad(s, (0, n - k))
            assert linalg.psd_check(diff).min_eig >= -1e-9 * norm

            c = m[k:, k:]
            c_eigs = np.linalg.eigvalsh((c + c.conj().T) / 2)
            if c_eigs[0] > 1e-6 * norm:
                ref = m[:k, :k] - m[k:, :k].conj().T @ np.linalg.solve(c, m[k:, :k])
                assert np.max(np.abs(s - ref)) <= 1e-8 * norm

                v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                v /= np.linalg.norm(v)
                bump = 1e-3 * norm * np.outer(v, v.conj())
                probe = m - np.pad(s + bump, (0, n - k))
                assert not linalg.psd_check(probe, tol=1e-9).ok


def test_criterion_5_inheritance():
    with criterion(5, "nested Schur complements reproduce lower-order corners"):
        rng = corpus.make_rng(SEED_INHERIT)
        for _ in range(20):
            r = int(rng.integers(1, 3))
            m = int(rng.integers(1, 5))
            q, _ = corpus.ridged_instance(rng, r, m, ridge=0.2)
            for k in range(1, m + 1):
                sk = schur_limit(q, k).value
                for j in range(k):
                    nested = linalg.schur_complement(sk, (j + 1) * r)
                    direct = schur_limit(q, j).value
                    assert np.max(np.abs(nested - direct)) <= 1e-7 * q.scale


def test_criterion_6_outerness(roundtrip_corpus, oracle_corpus):
    with criterion(6, "every produced factor passes the outerness check"):
        instances, _ = roundtrip_corpus
        for _, phat, rep in instances:
            assert rep.outer_verdict == "verified"
            assert verify.outer_check(phat).verdict == "verified"
        for _, p_schur, p_root in oracle_corpus:
            assert verify.outer_check(p_schur).verdict == "verified"
            assert verify.outer_check(p_root).verdict == "verified"


def test_criterion_7_degree_bound(roundtrip_corpus, oracle_corpus):
    with criterion(7, "factor degrees never exceed the input degree"):
        instances, _ = roundtrip_corpus
        for q, phat, _ in instances:
            assert phat.degree <= q.degree
            for k in range(q.degree + 1, phat.degree + 1):
                assert np.max(np.abs(phat.coeff(k))) <= 1e-8 * q.scale
        for q, p_schur, p_root in oracle_corpus:
            assert p_schur.degree <= q.degree
            assert p_root.degree <= q.degree


def test_criterion_8_cesaro_factorization():
    with criterion(8, "Cesaro-smoothed sums of squares factor at desk scale"):
        rng = corpus.make_rng(SEED_SOS2)
        grid = verify.GridSpec(6, 6)  # 64 x 64
        for _ in range(10):
            r = int(rng.integers(1, 3))
            m1 = int(rng.integers(0, 3))
            m2 = int(rng.integers(0, 3))
            q = corpus.sos_instance2(rng, r, m1, m2)
            for n in (q.deg2, q.deg2 + 2):
                factors, _ = factor_cesaro(q, n, grid=grid)
                resid = verify.residual(cesaro_smooth(q, n), factors, grid)
                assert resid <= 1e-6 * q.scale
                assert len(factors) <= n + 1
                assert all(f.deg1 <= m1 for f in factors)


def test_criterion_9_strict_two_variable(tmp_path, capsys):
    with criterion(9, "strict two-variable instance factors; non-strict rejected"):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[5.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        q_path = tmp_path / "plane.json"
        save_poly(q_path, q)
        out = tmp_path / "plane.factors.json"
        code = cli.main(["factor2d", str(q_path), "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["plan"]["N"] == 4
        assert report["factor_count"] <= 5
        assert report["residual_sup"] <= 1e-6 * q.scale

        q0 = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[4.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        q0_path = tmp_path / "flat.json"
        save_poly(q0_path, q0)
        code0 = cli.main(["factor2d", str(q0_path)])
        capsys.readouterr()
        assert code0 == 1


def test_criterion_10_truncation_monotonicity(roundtrip_corpus):
    with criterion(10, "corner complements nonincreasing across truncation doublings"):
        instances, _ = roundtrip_corpus
        for q, _, rep in instances:
            n = 4 * (q.degree + 1)
            prev = truncated_schur(q, 0, n)
            while 2 * n <= min(4 * rep.n_used, 512):
                n *= 2
                cur = truncated_schur(q, 0, n)
                lo = linalg.psd_check(prev - cur).min_eig
                assert lo >= -1e-10 * q.scale
                prev = cur
