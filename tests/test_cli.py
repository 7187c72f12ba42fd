import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specfactor
from specfactor import cli, verify
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    load_poly,
    save_poly,
)


@pytest.fixture
def strict_1d(tmp_path):
    q = MatrixLaurentPoly1.from_causal(1, {0: [[5.0]], 1: [[2.0]]})
    path = tmp_path / "q1.json"
    save_poly(path, q)
    return str(path)


@pytest.fixture
def indefinite_1d(tmp_path):
    q = MatrixLaurentPoly1.from_causal(1, {0: [[0.0]], 1: [[1.0]]})
    path = tmp_path / "qneg.json"
    save_poly(path, q)
    return str(path)


@pytest.fixture
def strict_2d(tmp_path):
    q = MatrixLaurentPoly2.from_causal(
        1, {(0, 0): [[5.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
    )
    path = tmp_path / "q2.json"
    save_poly(path, q)
    return str(path)


@pytest.fixture
def analytic_2d(tmp_path):
    f = MatrixAnalyticPoly2(1, 1, {(0, 0): [[1.0]], (1, 1): [[2.0]]})
    path = tmp_path / "f2.json"
    save_poly(path, f)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def outputs_at_one_and_two_threads(tmp_path, argv):
    """(stdout, p.json bytes) of specfactor argv run in a fresh process at
    one and at two BLAS threads, each in its own directory (the report
    names --out p.json, so both name the same file)."""
    src = str(Path(specfactor.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "specfactor.cli"] + argv,
                              capture_output=True, env=env, cwd=cwd, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, (cwd / "p.json").read_bytes()))
    return outputs


class TestCheck:
    def test_strict_passes(self, capsys, strict_1d):
        code, report, _ = run(capsys, ["check", strict_1d])
        assert code == 0
        assert report["ok"] is True
        assert report["min_eig"] == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_fails_with_witness(self, capsys, indefinite_1d):
        code, report, _ = run(capsys, ["check", indefinite_1d])
        assert code == 1
        assert report["min_eig"] == pytest.approx(-2.0, abs=1e-12)
        assert report["witness"][0][0] == pytest.approx(-1.0)

    def test_toeplitz_screen_is_scale_invariant(self, capsys, tmp_path):
        # 1e-10 (z + 1/z) dips to -2e-10: its 2-block Toeplitz matrix has
        # eigenvalue -1e-10, minus the input's own scale.
        path = tmp_path / "tiny.json"
        save_poly(path, MatrixLaurentPoly1.from_causal(1, {0: [[0.0]], 1: [[1e-10]]}))
        code, report, _ = run(capsys, ["check", str(path)])
        assert code == 1
        assert report["toeplitz_psd"]["ok"] is False
        assert report["toeplitz_psd"]["min_eig"] == pytest.approx(-1e-10, rel=1e-9)

    def test_one_variable_file_takes_one_grid_value(self, capsys, strict_1d):
        code, report, _ = run(capsys, ["check", strict_1d, "--grid", "5,7"])
        assert code == 2
        assert "--grid g" in report["error"]

    def test_two_variable_file_takes_one_or_two_grid_values(self, capsys, strict_2d):
        for grid in ("5", "5,7"):
            code, report, _ = run(capsys, ["check", strict_2d, "--grid", grid])
            assert code == 0
            assert report["ok"] is True

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nonsense")
        code, report, _ = run(capsys, ["check", str(path)])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, ["check", "/nonexistent/q.json"])
        assert code == 2

    def test_a_directory_as_the_file_is_an_input_error(self, capsys, tmp_path):
        code, report, _ = run(capsys, ["check", str(tmp_path)])
        assert code == 2 and str(tmp_path) in report["error"]


class TestFactor:
    def test_a_directory_as_out_is_an_input_error(self, capsys, strict_1d, tmp_path):
        code, report, _ = run(capsys, ["factor", strict_1d, "--out", str(tmp_path)])
        assert code == 2 and str(tmp_path) in report["error"]

    def test_writes_verified_factor_file(self, capsys, strict_1d, tmp_path):
        out = str(tmp_path / "p.json")
        code, report, _ = run(capsys, ["factor", strict_1d, "--out", out])
        assert code == 0
        assert report["residual_sup"] <= 1e-10
        assert report["outer_verdict"] == "verified"
        p = load_poly(out, kind="analytic")
        assert isinstance(p, MatrixAnalyticPoly1)
        assert p.coeff(0)[0, 0] == pytest.approx(2.0, abs=1e-8)
        assert p.coeff(1)[0, 0] == pytest.approx(1.0, abs=1e-8)
        # emitted factor re-verifies against its source
        q = load_poly(strict_1d)
        assert verify.residual(q, p) <= 1e-10

    def test_constant(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_poly(path, MatrixLaurentPoly1.from_causal(1, {0: [[4.0]]}))
        code, report, _ = run(capsys, ["factor", str(path)])
        assert code == 0
        p = load_poly(report["out"], kind="analytic")
        assert p.coeff(0)[0, 0] == pytest.approx(2.0)

    def test_reports_the_tolerance_it_applies(self, capsys, strict_1d, tmp_path):
        out = str(tmp_path / "p.json")
        code, report, _ = run(capsys, ["factor", strict_1d, "--out", out, "--tol", "1e-6"])
        assert code == 0
        assert report["tolerances"]["residual_tol"] == 1e-6

    def test_out_of_memory_exits_three(self, capsys, strict_1d, monkeypatch):
        from specfactor import factor1d

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(factor1d, "factor", exhausted)
        code, report, err = run(capsys, ["factor", strict_1d])
        assert code == 3
        assert report == {"error": "out of memory: Unable to allocate 8.00 GiB"}
        assert "out of memory: Unable to allocate 8.00 GiB" in err
        assert "convergence failure" not in err

    def test_rejects_indefinite(self, capsys, indefinite_1d):
        code, report, _ = run(capsys, ["factor", indefinite_1d])
        assert code == 1
        assert "error" in report

    def test_starved_truncation_exits_three(self, capsys, tmp_path):
        # boundary zero + tiny block cap cannot reach the tolerance
        path = tmp_path / "b.json"
        save_poly(path, MatrixLaurentPoly1.from_causal(1, {0: [[2.0]], 1: [[1.0]]}))
        code, report, _ = run(capsys, ["factor", str(path), "--max-trunc", "32"])
        assert code == 3
        assert report["converged"] is False

    def test_tiny_three_by_three_input_factors(self, capsys, tmp_path):
        # once "input error" (exit 2): the residual sup's prefilter underflowed
        from specfactor import corpus

        q, _ = corpus.ridged_instance(np.random.Generator(np.random.PCG64(1)), 3, 2)
        path = tmp_path / "tiny.json"
        save_poly(path, MatrixLaurentPoly1(3, {k: c * 1e-150 for k, c in q.coeffs.items()}))
        code, report, _ = run(capsys, ["factor", str(path)])
        assert code == 0
        assert report["outer_verdict"] == "verified"
        assert report["residual_sup"] <= 1e-12 * 1e-150 * q.scale

    def test_memory_budget_exits_three(self, capsys, tmp_path, monkeypatch):
        from specfactor import corpus, factor1d

        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        path = tmp_path / "ridged.json"
        save_poly(path, q)
        # One byte below the price of the limit from n0 = 8: refused, with
        # the price in the error, and no factor file.
        need = factor1d.limit_bytes(q, 3, 8)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", need - 1)
        code, report, _ = run(capsys, ["factor", str(path)])
        assert code == 3
        assert f"from N = 8 would need about {need:.3e} B" in report["error"]
        assert not (tmp_path / "ridged.json.factor.json").exists()

    def test_infinite_gap_prints_strict_json(self, capsys, tmp_path, monkeypatch):
        # A conditioning floor in the first doubling's join leaves gap = inf.
        from specfactor import corpus, linalg

        def floored(a, b, c, scale):
            raise linalg.NotPSDError("not positive definite")

        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        path = tmp_path / "ridged.json"
        save_poly(path, q)
        monkeypatch.setattr(linalg, "cholesky_complement", floored)
        code = cli.main(["factor", str(path)])
        out = capsys.readouterr().out

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=reject)
        assert code == 3
        assert report["gap"] is None
        assert report["N_used"] == 8

    def test_degraded_reason_on_stderr(self, capsys, tmp_path):
        # The block cap N = 8 stops the limit after one doubling.
        from specfactor import corpus

        q, _ = corpus.ridged_instance(np.random.default_rng(5), 2, 3)
        path = tmp_path / "ridged.json"
        save_poly(path, q)
        code, report, err = run(capsys, ["factor", str(path), "--max-trunc", "8"])
        assert code == 3
        assert "degraded: slow Schur convergence" in err and "block cap N = 8" in err
        assert "block cap" not in json.dumps(report)

    def test_default_tol_is_the_backward_stability_bound(self):
        from specfactor import factor1d

        for command in ("check", "factor", "factor2d", "oracle"):
            assert cli.build_parser().parse_args([command, "q.json"]).tol == factor1d.BACKWARD_TOL

    def test_default_cap_is_the_engine_default(self):
        from specfactor import factor1d

        for argv in (["factor", "q.json"], ["factor2d", "q.json"], ["oracle", "q.json"], ["roundtrip"]):
            assert cli.build_parser().parse_args(argv).max_trunc == factor1d.DEFAULT_N_MAX

    def test_cap_below_one_doubling_exits_two(self, capsys, strict_1d):
        code, report, _ = run(capsys, ["factor", strict_1d, "--max-trunc", "3"])
        assert code == 2
        assert "minimum 2(m + 1) = 4" in report["error"]


class TestFactor2d:
    def test_plane_instance(self, capsys, strict_2d, tmp_path):
        out = str(tmp_path / "fs.json")
        code, report, _ = run(capsys, ["factor2d", strict_2d, "--out", out])
        assert code == 0
        assert report["plan"]["N"] == 4
        assert report["factor_count"] <= 5
        assert report["residual_sup"] <= 1e-6 * 5.0
        with open(out, "r", encoding="utf-8") as fh:
            objs = json.load(fh)
        assert len(objs) == report["factor_count"]
        from specfactor.poly import poly_from_json

        factors = [poly_from_json(o) for o in objs]
        q = load_poly(strict_2d)
        assert verify.residual(q, factors, verify.GridSpec(6, 6)) <= 1e-6 * q.scale

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_a_non_finite_delta_is_an_input_error(self, capsys, strict_2d, delta):
        code, report, _ = run(capsys, ["factor2d", strict_2d, "--delta", delta])
        assert code == 2
        assert report == {"error": f"delta must be a finite positive number, got {delta}"}

    def test_nonstrict_rejected(self, capsys, tmp_path):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[4.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        path = tmp_path / "q0.json"
        save_poly(path, q)
        code, report, err = run(capsys, ["factor2d", str(path)])
        assert code == 1
        assert "not strictly positive" in report["error"]

    def test_degraded_reason_on_stderr(self, capsys, tmp_path):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[4.2]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        path = tmp_path / "q42.json"
        save_poly(path, q)
        code, report, err = run(capsys, ["factor2d", str(path), "--max-trunc", "8"])
        assert code == 3
        assert report["converged"] is False
        assert "degraded: slow Schur convergence" in err
        assert "block cap N = 8" in err
        assert "block cap" not in json.dumps(report)

    def test_lift_over_budget_exits_three(self, capsys, tmp_path, monkeypatch):
        from specfactor import factor1d

        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[4.2]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        path = tmp_path / "q42.json"
        save_poly(path, q)
        monkeypatch.setattr(factor1d, "MEMORY_BUDGET", 10_000)
        code, report, err = run(capsys, ["factor2d", str(path)])
        # the first trial, N = 1: lift size 2, start n0 = 4; every later
        # lift costs more, so the scan stops there
        need = factor1d.limit_bytes((2, 1), 1, 4)
        assert code == 3
        assert f"would need about {need:.3e} B" in report["error"]
        assert "convergence failure" in err

    def test_near_singular_plane_factors_at_the_smallest_lift(self, capsys, tmp_path):
        # plane c0=4.001 certifies N = 3532, over the memory budget; the
        # lift N = 1 factors it, and the summary names both.
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[4.001]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        path = tmp_path / "q4001.json"
        save_poly(path, q)
        code, report, err = run(capsys, ["factor2d", str(path), "--out", str(tmp_path / "fs.json")])
        assert code == 0
        assert (report["plan"]["N"], report["tolerances"]["lift_n"], report["factor_count"]) == (3532, 1, 2)
        assert report["converged"] is True and report["outer_verdict"] == "verified"
        assert "factor2d: 2 factors, lift N = 1 (plan N = 3532), residual " in err

    def test_wrong_arity_is_input_error(self, capsys, strict_1d):
        code, _, _ = run(capsys, ["factor2d", strict_1d])
        assert code == 2

    def test_reports_the_tolerance_it_applies(self, capsys, strict_2d, tmp_path):
        out = str(tmp_path / "fs.json")
        code, report, _ = run(capsys, ["factor2d", strict_2d, "--out", out, "--tol", "1e-6"])
        assert code == 0
        assert report["tolerances"]["residual_tol"] == 1e-6


class TestEval:
    def test_half_turn(self, capsys, strict_1d):
        code, report, _ = run(capsys, ["eval", strict_1d, "--point", "0.5"])
        assert code == 0
        assert report["value"][0][0][0] == pytest.approx(1.0, abs=1e-12)

    def test_two_variable_point(self, capsys, strict_2d):
        code, report, _ = run(capsys, ["eval", strict_2d, "--point", "0.5,0.5"])
        assert code == 0
        assert report["value"][0][0][0] == pytest.approx(1.0, abs=1e-12)

    def test_arity_mismatch(self, capsys, strict_2d):
        code, _, _ = run(capsys, ["eval", strict_2d, "--point", "0.5"])
        assert code == 2

    def test_two_variable_analytic(self, capsys, analytic_2d):
        code, report, _ = run(capsys, ["eval", analytic_2d, "--point", "0.5,0.5"])
        assert code == 0
        assert report["value"][0][0][0] == pytest.approx(3.0, abs=1e-12)

    def test_two_variable_analytic_arity_mismatch(self, capsys, analytic_2d):
        code, report, _ = run(capsys, ["eval", analytic_2d, "--point", "0.5"])
        assert code == 2
        assert "needs --point t1,t2" in report["error"]

    @pytest.mark.parametrize(
        "kind, far",
        [
            ("analytic", [0, 0]),  # the dense (20001, 20001) box needs 6.4 GB
            ("laurent", [-20000, -20000]),  # the dense (40001, 40001) box needs 25.6 GB
        ],
        ids=["analytic", "laurent"],
    )
    def test_dense_box_over_the_memory_limit_exits_three(self, tmp_path, kind, far):
        # Two coefficients, but a dense box that the file fails to load into.
        path = tmp_path / "far.json"
        one = [[[1.0, 0.0]]]
        path.write_text(json.dumps({
            "kind": kind, "vars": 2, "size": 1, "degrees": [20000, 20000],
            "coeffs": [{"index": far, "matrix": one}, {"index": [20000, 20000], "matrix": one}],
        }))

        def limit_address_space():  # runs in the child only
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        src = str(Path(specfactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "specfactor.cli", "eval", str(path), "--point", "0.1,0.2"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout)["error"].startswith("out of memory: ")
        assert proc.stderr.startswith("out of memory: ")
        assert "Traceback" not in proc.stderr


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{file}", "--point", "0.5", "--tol", "1"],
            ["factor", "{file}", "--grid", "5,7"],
        ],
        ids=["eval-has-no-tol", "factor-grid-is-one-value"],
    )
    def test_unread_flags_are_input_errors(self, capsys, strict_1d, argv):
        code, _, err = run(capsys, [a.format(file=strict_1d) for a in argv])
        assert code == 2
        assert "usage:" in err


class TestOracle:
    def test_agreement(self, capsys, strict_1d):
        code, report, _ = run(capsys, ["oracle", strict_1d])
        assert code == 0
        assert report["max_coeff_diff"] <= 1e-8

    def test_matrix_input_rejected(self, capsys, tmp_path):
        q = MatrixLaurentPoly1.from_causal(2, {0: np.eye(2)})
        path = tmp_path / "m.json"
        save_poly(path, q)
        code, _, _ = run(capsys, ["oracle", str(path)])
        assert code == 2


class TestRoundtrip:
    def test_small_corpus_passes(self, capsys):
        code, report, _ = run(
            capsys,
            ["roundtrip", "--seed", "42", "--count", "5", "--size", "2", "--degree", "3"],
        )
        assert code == 0
        assert report["failures"] == 0
        assert report["max_relative_residual"] <= 1e-7

    def test_zero_count(self, capsys):
        code, report, _ = run(capsys, ["roundtrip", "--count", "0"])
        assert code == 0
        assert report["instances"] == []

    def test_starved_truncation(self, capsys):
        code, report, _ = run(
            capsys,
            [
                "roundtrip",
                "--seed",
                "42",
                "--count",
                "2",
                "--size",
                "2",
                "--degree",
                "3",
                "--max-trunc",
                "8",
            ],
        )
        assert code == 3

    def test_determinism(self, capsys):
        argv = ["roundtrip", "--seed", "7", "--count", "3", "--size", "2", "--degree", "2"]
        code_a = cli.main(argv)
        out_a = capsys.readouterr().out
        code_b = cli.main(argv)
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b


class TestDeterministicReports:
    def test_factor_reports_bit_identical(self, capsys, strict_1d, tmp_path):
        out = str(tmp_path / "p.json")
        cli.main(["factor", strict_1d, "--out", out])
        rep_a = capsys.readouterr().out
        first_file = Path(out).read_bytes()
        cli.main(["factor", strict_1d, "--out", out])
        rep_b = capsys.readouterr().out
        second_file = Path(out).read_bytes()
        assert rep_a == rep_b
        assert first_file == second_file

    def test_factor_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The contract (README, "Command line"): bit-identical at any BLAS
        # thread count when no dense order reaches 68, as for a ridged r = 3,
        # m = 4 input (orders up to 30), each run in a fresh process.
        from specfactor import corpus

        q, _ = corpus.ridged_instance(np.random.default_rng(5), 3, 4)
        path = tmp_path / "ridged.json"
        save_poly(path, q)
        outputs = outputs_at_one_and_two_threads(tmp_path, ["factor", str(path), "--out", "p.json"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("c0", [4.2, 4.01])
    def test_factor2d_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, c0):
        # The planes factor at the lift N = 1, of order 2, far below 68.
        q = MatrixLaurentPoly2.from_causal(1, {(0, 0): [[c0]], (1, 0): [[1.0]], (0, 1): [[1.0]]})
        path = tmp_path / "plane.json"
        save_poly(path, q)
        outputs = outputs_at_one_and_two_threads(tmp_path, ["factor2d", str(path), "--out", "p.json"])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["tolerances"]["lift_n"] == 1
