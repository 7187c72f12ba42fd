# Tests of the benchmark itself: self-time arithmetic, the tail rule, the
# speed scaling, tracing wrappers (coverage, pass-through, restoration),
# seeded inputs and the refusal to run without the library sources.

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from specfactor import factor1d  # noqa: E402

NOTES = json.loads((BENCH / "notes.json").read_text())

# Cheapest inputs of each workload that still reach every layer mapped to it.
SMOKE = {"ridged_1d": [0], "boundary_1d": [0], "strict_2d": [0, 1], "corpus_small": [4, 25]}


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the union counts once
        S("a.child", 2.0, 3.0, 1, 0),
        S("late", 9.0, 12.0, 0, 0),  # clipped to the parent's end
        S("a", 20.0, 21.0, -1, 5),
    ]
    t = tracing.span_times(spans)
    assert t["root"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - (5.0 + 1.0)}
    assert t["a"]["calls"] == 2
    assert t["a"]["total_s"] == pytest.approx(4.0)
    assert t["a"]["self_s"] == pytest.approx(3.0)  # 3 - 1 and 1 - 0
    assert t["b"]["self_s"] == pytest.approx(3.0)
    assert t["late"]["self_s"] == pytest.approx(3.0)


def test_covered_union():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_tail_rule():
    value, pct, beyond = run.tail_stat([float(x) for x in range(100, 0, -1)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    xs = [float(x) for x in range(1, 12)]
    assert run.tail_stat(xs) == (1.0, 100.0 * 1 / 11, 10)
    assert run.tail_stat([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_scaled_time_uses_the_kernel_around_the_call():
    n = calibrate.NOMINAL_S
    assert calibrate.scaled(2.0, n, n) == pytest.approx(2.0)
    assert calibrate.scaled(1.0, 2 * n, 2 * n) == pytest.approx(0.5)
    assert calibrate.scaled(1.0, n, 3 * n) == pytest.approx(0.5)


def test_reference_kernel_is_fixed_and_library_free():
    source = (BENCH / "calibrate.py").read_text()
    assert "specfactor" not in source
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.measure(1) > 0.0


def test_scalar_roots_keep_their_spread_on_every_seed():
    for seed in range(5):
        rng = workloads.make_rng(3, seed)
        for m in (2, 3, 4):
            roots = np.roots(np.array([c[0, 0] for c in workloads._outer_scalar(rng, m).coeffs])[::-1])
            moduli = np.sort(np.abs(roots))
            assert 1.05 <= moduli[0] <= 1.05 * 1.02 + 1e-9
            assert moduli[-1] <= 3.0 * 1.02 + 1e-9


def _smoke_cases(name):
    cases = workloads.build_inputs(name, 7)
    return [cases[i] for i in SMOKE[name]]


def test_every_layer_is_mapped():
    names = {key.rsplit(".", 1)[0] for key in tracing.quantity_names()}
    assert names == set(NOTES["layer_map"])
    for entry in NOTES["layer_map"].values():
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrapped_layers_record_calls_on_their_workload(name):
    w = workloads.WORKLOADS[name]
    rec = tracing.Recorder()
    with tracing.installed(rec):
        for case in _smoke_cases(name):
            with rec.span("bench.call"):
                w.call(case)
    tracing.assert_untraced()
    values = tracing.layer_values(rec, 1)
    mapped = [layer for layer, e in NOTES["layer_map"].items() if name in e["workloads"]]
    assert mapped
    for layer in mapped:
        assert values[f"{layer}.calls"] > 0, layer
        assert values[f"{layer}.total_s"] >= values[f"{layer}.self_s"] >= 0.0


def test_wrappers_pass_exceptions_and_restore():
    originals = {(mod, fn): getattr(sys.modules[f"specfactor.{mod}"], fn)
                 for mod, fn, _ in tracing.TARGETS}
    rec = tracing.Recorder()
    not_pd = np.array([[1.0, -1.0], [2.0, 2.0]])  # band storage of a non-PD matrix
    with pytest.raises(RuntimeError, match="boom"):
        with tracing.installed(rec):
            assert factor1d.solveh_banded is not originals[("factor1d", "solveh_banded")]
            with pytest.raises(np.linalg.LinAlgError):
                factor1d.solveh_banded(not_pd, np.ones(2), lower=True)
            with pytest.raises(ValueError):
                factor1d.truncated_schur(workloads.plane(5.0), -1, 1)
            raise RuntimeError("boom")
    assert rec.counters["factor1d.solveh_banded.retries"] == 1
    assert tracing.span_times(rec.spans)["factor1d.truncated_schur"]["calls"] == 1
    tracing.assert_untraced()
    for (mod, fn), orig in originals.items():
        assert getattr(sys.modules[f"specfactor.{mod}"], fn) is orig
    assert factor1d.toeplitz_psd_check is originals[("poly", "toeplitz_psd_check")]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    def coeff_bytes(cases):
        return [(c.label, sorted((k, v.tobytes()) for k, v in c.q.coeffs.items()))
                for c in cases]

    first = coeff_bytes(workloads.build_inputs(name, 3))
    assert first == coeff_bytes(workloads.build_inputs(name, 3))
    assert first != coeff_bytes(workloads.build_inputs(name, 4))


def test_repeated_call_has_identical_digest():
    w = workloads.WORKLOADS["corpus_small"]
    case = _smoke_cases("corpus_small")[1]
    assert checks.digest(w.call(case)) == checks.digest(w.call(case))


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ridged_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
