import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def checkout_copy(dest: Path) -> Path:
    # What a worker of tools/ab_calls.py imports: src/ and bench/workloads.py.
    shutil.copytree(ROOT / "src" / "specfactor", dest / "src" / "specfactor",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (dest / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "workloads.py", dest / "bench")
    return dest


def test_ab_calls_a_a_smoke(tmp_path):
    tree = checkout_copy(tmp_path / "tree")
    before = sorted(tree.rglob("*"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), str(tree), str(tree),
         "--workload", "strict_2d", "--reps", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "workload strict_2d  seed 1  pairs 14"
    medians = [float(re.search(r"median ([0-9.]+) s", line)[1]) for line in lines[1:3]]
    assert all(m > 0 for m in medians)
    ratio = float(re.fullmatch(r"paired median change/base ([0-9.]+)", lines[3])[1])
    assert 0.2 < ratio < 5
    share = float(re.fullmatch(r"change faster in ([0-9.]+) of pairs", lines[4])[1])
    assert 0 <= share <= 1
    for line, label, median in zip(lines[5:7], ("base   quartiles", "change quartiles"), medians):
        q1, q2, q3 = map(float, re.fullmatch(label + r" ([0-9.]+) ([0-9.]+) ([0-9.]+) s", line).groups())
        assert 0 < q1 <= q2 <= q3
        assert q2 == median
    q1, q2, q3 = map(float, re.fullmatch(
        r"paired change/base quartiles ([0-9.]+) ([0-9.]+) ([0-9.]+)", lines[7]).groups())
    assert q1 <= q2 <= q3
    assert q2 == pytest.approx(ratio, abs=1e-4)  # the paired median, to its 4 printed digits
    assert len(lines) == 8
    assert sorted(tree.rglob("*")) == before  # nothing written in the checkout


def test_ab_calls_rejects_zero_reps(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), str(tmp_path), str(tmp_path),
         "--workload", "strict_2d", "--reps", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2 and "--reps must be >= 1" in run.stderr


def test_digest_outputs_per_input(tmp_path):
    # What tools/digest_outputs.py imports: src/, bench/workloads.py and bench/checks.py.
    tree = checkout_copy(tmp_path / "tree")
    shutil.copy(ROOT / "bench" / "checks.py", tree / "bench")
    before = sorted(tree.rglob("*"))

    def digest(*flags):
        run = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "digest_outputs.py"), str(tree), *flags],
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()

    plain, per_input = digest(), digest("--per-input")
    assert len(plain) == 3 and all(re.fullmatch(r"[0-9a-f]{64}", line) for line in plain)
    assert per_input[:3] == plain
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    labels = [f"{name} {seed} {case.label}" for name in workloads.WORKLOADS for seed in (1, 2, 3)
              for case in workloads.build_inputs(name, seed)]
    rows = [re.fullmatch(r"(.+) ([0-9a-f]{64})", line) for line in per_input[3:]]
    assert [row[1] for row in rows] == labels  # one line per input, in run order
    assert len({row[2] for row in rows}) == len(rows)
    assert sorted(tree.rglob("*")) == before  # nothing written in the checkout


def test_digest_outputs_rejects_an_unknown_flag(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest_outputs.py"), str(tmp_path), "--per-inputs"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2 and "--per-input" in run.stderr


def test_boundary_table_rows(tmp_path):
    # What tools/boundary_table.py imports: src/ alone.
    tree = checkout_copy(tmp_path / "tree")
    before = sorted(tree.rglob("*"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "boundary_table.py"), str(tree)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    header, *lines = run.stdout.splitlines()
    assert header.split() == ["p", "n_max", "converged", "N_used", "residual/scale",
                              "coeff_error", "outer", "degraded_reason"]
    assert [line for line in lines if line.split()[2] == "raised"] == []  # no valid input rejected
    rows = [line.split(maxsplit=7) for line in lines]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(p, n) for p in (1, 2, 3, 4) for n in (4096, 2**32)]
    for p, n_max, converged, n_used, residual, error, outer, reason in rows:
        assert converged in ("yes", "no") and 1 <= int(n_used) <= int(n_max)
        assert 0.0 <= float(residual) < 1.0 and 0.0 <= float(error) < 1.0
        assert outer in ("verified", "failed", "inconclusive")
        assert (reason == "-") == (converged == "yes")
    # |1+z|^2 at the default cap stops there, gap-dominated, and still outer.
    assert rows[0][2:4] == ["no", "4096"] and rows[0][6] == "verified"
    assert sorted(tree.rglob("*")) == before  # nothing written in the checkout


def test_boundary_table_prints_a_raising_row(tmp_path):
    # A call that raises is one row, "raised <type>", and the table goes on.
    tree = checkout_copy(tmp_path / "tree")
    factor1d = tree / "src" / "specfactor" / "factor1d.py"
    factor1d.write_text(factor1d.read_text() + (
        "\n_factor = factor\n\n\ndef factor(q, **kwargs):\n"
        "    if kwargs['n_max'] == 4096 and q.degree == 2:\n"
        "        raise FactorNumericalError('injected')\n"
        "    return _factor(q, **kwargs)\n"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "boundary_table.py"), str(tree)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()[1:]
    assert len(lines) == 8
    assert lines[2].split() == ["2", "4096", "raised", "FactorNumericalError"]
    assert all(line.split()[2] in ("yes", "no") for i, line in enumerate(lines) if i != 2)


def test_boundary_table_needs_one_checkout(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "boundary_table.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2 and "boundary_table.py <checkout>" in run.stderr
