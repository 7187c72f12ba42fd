# Benchmark workloads: seeded inputs and the top-level call each one
# times.  Library functions are looked up on their modules at call time,
# so the tracing wrappers see every call the benchmark makes.

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from specfactor import corpus, factor1d, factor2d, verify
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixLaurentPoly2,
    adjoint_product,
)

# Mixed into every seed so benchmark inputs never coincide with the
# streams the test suite draws from integer seeds.
SALT = 0x5EC7_FAC7


@dataclass
class Case:
    label: str
    q: object  # MatrixLaurentPoly1 or MatrixLaurentPoly2


@dataclass
class Outcome:
    """What one top-level call returned."""

    factors: list  # [P] for one variable, the F_l for two
    report: dict  # default report JSON of the call
    converged: bool
    verdict: str
    rel_gap: float
    screen_min: float | None = None  # grid_min_eig on the input, if taken
    oracle: MatrixAnalyticPoly1 | None = None  # root-pairing factor, if taken
    lift_n: int | None = None  # second-variable truncation N of a 2-D call


def make_rng(workload_index: int, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([SALT, workload_index, seed])))


def _report_1d(rep) -> tuple[dict, float]:
    return rep.to_json(), rep.gap / max(rep.tolerances["scale"], 1e-300)


def call_factor(case: Case) -> Outcome:
    p, rep = factor1d.factor(case.q)
    report, rel_gap = _report_1d(rep)
    return Outcome([p], report, rep.converged, rep.outer_verdict, rel_gap)


def call_corpus(case: Case) -> Outcome:
    """Acceptance-corpus shape: screen, factor, fix the gauge, and for a
    scalar input also run the root-pairing oracle."""
    screen = verify.grid_min_eig(case.q)
    p, rep = factor1d.factor(case.q)
    p = factor1d.normalize_gauge(p)
    oracle = factor1d.scalar_root_factor(case.q) if case.q.size == 1 else None
    report, rel_gap = _report_1d(rep)
    return Outcome([p], report, rep.converged, rep.outer_verdict, rel_gap,
                   screen_min=screen.min_eig, oracle=oracle)


def call_strict(case: Case) -> Outcome:
    fs, rep, plan = factor2d.factor_strict(case.q)
    report = dict(rep.to_json(), plan=plan.to_json())
    rel_gap = rep.gap / max(rep.tolerances["scale"], 1e-300)
    return Outcome(fs, report, rep.converged, rep.outer_verdict, rel_gap,
                   lift_n=plan.n)


# -- input builders -----------------------------------------------------------


def _times_one_plus_z(coeffs: list[np.ndarray], column: int | None) -> list[np.ndarray]:
    """Multiply an analytic polynomial (one column of it, or all) by 1 + z."""
    out = [c.copy() for c in coeffs] + [np.zeros_like(coeffs[0])]
    for j, c in enumerate(coeffs):
        if column is None:
            out[j + 1] += c
        else:
            out[j + 1][:, column] += c[:, column]
    return out


def _outer_scalar(rng, m: int, lo: float = 1.05, hi: float = 3.0) -> MatrixAnalyticPoly1:
    """Scalar analytic polynomial with all m roots of modulus in [lo, hi]:
    moduli log-spaced from lo to hi (the geometric mean for m = 1) with
    a 2% seeded jitter, seeded phases.  The root nearest the circle sets
    the cost of a factorization, so it is pinned near lo on every seed."""
    steps = np.linspace(0.0, 1.0, m) if m > 1 else np.array([0.5])
    moduli = lo * (hi / lo) ** steps * rng.uniform(1.0, 1.02, m)
    roots = moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, m))
    asc = np.poly(roots)[::-1] * rng.uniform(0.5, 2.0)
    return MatrixAnalyticPoly1([np.array([[c]]) for c in asc])


def plane(c0: float) -> MatrixLaurentPoly2:
    """c0 + z1 + 1/z1 + z2 + 1/z2, strictly positive for c0 > 4."""
    one = np.ones((1, 1), dtype=complex)
    return MatrixLaurentPoly2.from_causal(1, {(0, 0): c0 * one, (1, 0): one, (0, 1): one})


def build_ridged(rng) -> list[Case]:
    cases = []
    # 16 inputs: with 8 the largest convergence gap of a pass swings between
    # 1e-10 and 1e-14 from seed to seed.
    for i in range(16):
        q, _ = corpus.ridged_instance(rng, 3, 4)
        cases.append(Case(f"ridged r=3 m=4 #{i}", q))
    return cases


def build_boundary(rng) -> list[Case]:
    cases = []
    for i in range(3):
        a = corpus.random_analytic1(rng, 1, 2)
        p = MatrixAnalyticPoly1(_times_one_plus_z(a.coeffs, None))
        cases.append(Case(f"scalar (1+z)a(z) m=3 #{i}", adjoint_product(p)))
    for i in range(8):
        a = corpus.random_analytic1(rng, 2, 2)
        p = MatrixAnalyticPoly1(_times_one_plus_z(a.coeffs, 0))
        cases.append(Case(f"matrix r=2 m=3 column*(1+z) #{i}", adjoint_product(p)))
    return cases


def build_strict(rng) -> list[Case]:
    q1, _ = corpus.ridged_instance(rng, 1, 2)
    cases = [Case("z2-free ridged scalar m=2 (oracle)",
                  MatrixLaurentPoly2(1, {(j, 0): c for j, c in q1.coeffs.items()}))]
    cases += [Case("plane c0=5", plane(5.0)), Case("plane c0=4.4", plane(4.4))]
    # A 0.6 ridge keeps the lift at N = 3-5, where outerness is verified; with
    # 0.3 most inputs reach N >= 7 and end "inconclusive" depending on the
    # seed, while plane c0=4.2 shows that defect on every seed.  Ten of them
    # so that the median call, which is one of these, varies little with the
    # seed.
    for i in range(10):
        q = corpus.sos_instance2(rng, 2, 1, 1)
        coeffs = dict(q.coeffs)
        coeffs[(0, 0)] = coeffs[(0, 0)] + 0.6 * q.scale * np.eye(2)
        cases.append(Case(f"sos r=2 m=(1,1) + ridge #{i}", MatrixLaurentPoly2(2, coeffs)))
    cases.append(Case("plane c0=4.2", plane(4.2)))
    return cases


def build_corpus(rng) -> list[Case]:
    # Two of every shape, so that the median call varies little with the
    # seed, and a third of the largest: solve_s_tail is the 11th-largest
    # call, which then falls among the largest shape's calls whether a run
    # makes 4 passes or 8.
    cases = []
    for i in range(2):
        for r in (1, 2, 3):
            for m in (1, 2, 3, 4):
                q, _ = corpus.ridged_instance(rng, r, m)
                cases.append(Case(f"ridged r={r} m={m} #{i}", q))
    q, _ = corpus.ridged_instance(rng, 3, 4)
    cases.append(Case("ridged r=3 m=4 #2", q))
    # m = 3 twice per cycle: the median call then falls in the middle of
    # the m = 3 calls, not at the edge between two costs.
    for i in range(30):
        m = (1, 2, 3, 4, 3)[i % 5]
        cases.append(Case(f"scalar roots m={m} #{i}",
                          adjoint_product(_outer_scalar(rng, m))))
    return cases


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator], list[Case]]
    call: Callable[[Case], Outcome]
    warmup: Callable[[], Case]  # small fixed input, the same for every seed


def _warm_ridged() -> Case:
    q, _ = corpus.ridged_instance(make_rng(99, 0), 2, 2)
    return Case("warm-up ridged r=2 m=2", q)


def _warm_boundary() -> Case:
    one = np.ones((1, 1))
    return Case("warm-up |1+z|^2", adjoint_product(MatrixAnalyticPoly1([one, one])))


def _warm_corpus() -> Case:
    return Case("warm-up scalar m=2", adjoint_product(_outer_scalar(make_rng(99, 0), 2)))


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "ridged_1d",
            "construction-bound 1-D inputs (r=3, m=4): eigensolves and m+1 Schur limits; verification negligible",
            build_ridged, call_factor, _warm_ridged),
        Workload(
            "boundary_1d",
            "zeros on the circle at the default n_max: banded solves up to N=4096, every call ends degraded today",
            build_boundary, call_factor, _warm_boundary),
        Workload(
            "strict_2d",
            "the only workload for the lift, truncation choice, 2-D verification and outerness of lifted factors",
            build_strict, call_strict, lambda: Case("warm-up plane c0=5", plane(5.0))),
        Workload(
            "corpus_small",
            "many small acceptance-corpus inputs with screen, gauge and oracle: per-call fixed cost dominates",
            build_corpus, call_corpus, _warm_corpus),
    ]
}


def build_inputs(name: str, seed: int) -> list[Case]:
    index = list(WORKLOADS).index(name)
    return WORKLOADS[name].build(make_rng(index, seed))
