import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specfactor

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "specfactor"

# The five LAPACK routines and the BLAS routine the library calls, as
# scipy.linalg hands them out, against the module-level names it calls them by.
SAME_ROUTINES = """
import sys
import scipy.linalg
from specfactor import linalg, verify

got = (linalg._potrf, linalg._trtrs, linalg._pbsv, linalg._ptsv, verify._ggev)
want = scipy.linalg.get_lapack_funcs(("potrf", "trtrs", "pbsv", "ptsv", "ggev"), dtype=complex)
assert all(a is b for a, b in zip(got, want)), (got, want)
assert linalg._herk is scipy.linalg.get_blas_funcs("herk", dtype=complex)
# one extension module each, initialised once, serves both
assert linalg._flapack is sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
assert linalg._fblas is sys.modules["scipy.linalg._fblas"] is scipy.linalg.blas._fblas
"""


def run_fresh(code):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves():
    missing = [name for name in specfactor.__all__ if not hasattr(specfactor, name)]
    assert missing == []
    assert len(set(specfactor.__all__)) == len(specfactor.__all__)


def test_import_leaves_the_scipy_linalg_package_out():
    run_fresh(
        "import sys, specfactor, specfactor.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n"
        "assert 'scipy.linalg._flapack' in sys.modules and 'scipy.linalg._fblas' in sys.modules"
    )


@pytest.mark.parametrize("first", ["import specfactor", "import scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    run_fresh(first + "\n" + SAME_ROUTINES)


def test_lapack_routines_are_scipys_in_this_process():
    # the routines TestSolvehBanded and TestDirectCholesky compare against
    exec(SAME_ROUTINES, {})


def referenced_names(node) -> set:
    # Every name node reads as a name, an attribute or an import.
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_the_memory_policy_is_factor1d_alone():
    # factor2d refuses a lift through factor1d.refuse_over_budget and prices
    # nothing itself.
    names = referenced_names(ast.parse((PACKAGE / "factor2d.py").read_text()))
    assert names.isdisjoint({"start_blocks", "limit_bytes", "MEMORY_BUDGET"})


def test_a_limit_that_stops_short_returns_and_only_a_refusal_raises():
    # schur_limit returns its last corner wherever it stops: no module reads
    # or sets an attribute named partial, and SchurConvergenceError is built
    # only by refuse_over_budget and by _complement, whose conditioning
    # floor schur_limit catches.
    partial, built = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr == "partial":
                    partial.append(where)
                elif isinstance(node, ast.Call) and "SchurConvergenceError" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    built.append(where)
    assert partial == []
    assert built == ["factor1d._complement", "factor1d.refuse_over_budget"]


def test_every_definition_is_used_or_exported():
    # A top-level function or class of the library is read by another
    # statement of the library (its own body does not count; __init__.py's
    # re-exports do not either) or is public in specfactor.__all__.
    # corpus.py's seeded generators are shared with the tests and the
    # benchmark by design.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    del trees["__init__.py"]
    unused = []
    for name, tree in trees.items():
        if name == "corpus.py":
            continue
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            others = (s for t in trees.values() for s in t.body if s is not stmt)
            if stmt.name not in specfactor.__all__ and not any(
                stmt.name in referenced_names(s) for s in others
            ):
                unused.append(f"{name}:{stmt.name}")
    assert unused == []
