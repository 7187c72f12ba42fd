# Outside-in tracing for the benchmark: wraps public library functions in
# the module namespaces their callers look them up in, records one span
# (name, start, end, parent, call id) per wrapped call in memory, and
# folds the spans into per-layer calls, self time and total time.  Nothing
# here is installed unless the benchmark runs with tracing on.

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _verdict_is(verdict):
    return lambda a, k, r: None if r is None else int(r.verdict == verdict)


# (module, function, extra quantities).  Each extra quantity is
# (name, how, fn): fn(args, kwargs, result) gives the value of one call,
# with result None when the call raised; "sum" adds values over calls,
# "max" keeps the largest.  The module is where the function is defined,
# or for solveh_banded the one that imports it.
TARGETS = [
    ("linalg", "eig_hermitian",
     [("n3_sum", "sum", lambda a, k, r: len(_arg(a, k, 0, "h")) ** 3)]),
    ("linalg", "psd_sqrt", []),
    ("linalg", "range_restricted_solve", []),
    ("poly", "toeplitz_psd_check", []),
    ("factor1d", "factor", []),
    ("factor1d", "schur_limit", []),
    ("factor1d", "truncated_schur",
     [("blocks_sum", "sum", lambda a, k, r: int(_arg(a, k, 2, "n_blocks")))]),
    ("factor1d", "solveh_banded",
     [("bytes_computed", "sum",
       lambda a, k, r: _arg(a, k, 0, "ab").nbytes + _arg(a, k, 1, "b").nbytes)]),
    ("factor1d", "scalar_root_factor", []),
    ("factor1d", "normalize_gauge", []),
    ("factor2d", "factor_strict", []),
    ("factor2d", "estimate_delta", []),
    ("factor2d", "choose_truncation", []),
    ("factor2d", "remainder_bound", []),
    ("factor2d", "lift_to_block",
     [("lifted_size", "max", lambda a, k, r: None if r is None else r.size)]),
    ("factor2d", "unlift_factor", []),
    ("verify", "residual", []),
    ("verify", "grid_min_eig", []),
    ("verify", "outer_check", [("inconclusive", "sum", _verdict_is("inconclusive"))]),
]

# Exceptions a caller recovers from: the wrapper counts them under the
# quantity name and passes them on (solveh_banded's LinAlgError triggers
# the jitter retry in truncated_schur).
RETRIES = {"factor1d.solveh_banded": ("retries", np.linalg.LinAlgError)}

# Unit of each quantity; counts and times are per pass over the inputs.
UNITS = {"calls": "count/pass", "self_s": "s/pass", "total_s": "s/pass",
         "n3_sum": "count/pass", "blocks_sum": "count/pass",
         "bytes_computed": "B/pass", "retries": "count/pass",
         "lifted_size": "count", "inconclusive": "count/pass"}


def quantity_names() -> list[str]:
    """Every per-layer quantity the recorder reports, in a fixed order."""
    names = []
    for mod, fn, extras in TARGETS:
        base = f"{mod}.{fn}"
        names += [f"{base}.calls", f"{base}.self_s", f"{base}.total_s"]
        names += [f"{base}.{q}" for q, _, _ in extras]
        if base in RETRIES:
            names.append(f"{base}.{RETRIES[base][0]}")
    return names


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    call_id: int  # index of the root span of the benchmark call


class Recorder:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        call_id = self.spans[parent].call_id if parent >= 0 else len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, call_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value, how: str = "sum") -> None:
        if value is None:
            return
        if how == "max":
            self.counters[key] = max(self.counters.get(key, value), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.call_id] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call_id"],
                       "spans": rows}, fh)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur = 0.0, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur is None or a > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        else:
            cur[1] = max(cur[1], b)
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def span_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (sum of durations) and self_s (each
    duration minus the part of it that its child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - covered(children.get(i, []), s.start, s.end)
    return out


def layer_values(rec: Recorder, passes: int) -> dict[str, float]:
    """Every quantity of quantity_names(), per pass where it is a sum."""
    times = span_times(rec.spans)
    out = {}
    for key in quantity_names():
        name, quantity = key.rsplit(".", 1)
        if quantity in ("calls", "self_s", "total_s"):
            value = times.get(name, {}).get(quantity, 0)
        else:
            value = rec.counters.get(key, 0)
        out[key] = value if UNITS[quantity] == "count" else value / passes
    return out


def _wrap(fn, name: str, rec: Recorder, extras, retry):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            if retry is not None and isinstance(exc, retry[1]):
                rec.add(f"{name}.{retry[0]}", 1)
            raise
        finally:
            rec.close(idx)
            for q, how, f in extras:
                rec.add(f"{name}.{q}", f(args, kwargs, result), how)

    wrapper.bench_traced = True
    return wrapper


def _library_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "specfactor" or n.startswith("specfactor."))]


@contextmanager
def installed(rec: Recorder):
    """Replace every library binding of each target by a recording
    wrapper; the originals are put back on exit, also after an error."""
    patched = []
    try:
        for mod, fn, extras in TARGETS:
            name = f"{mod}.{fn}"
            orig = getattr(sys.modules[f"specfactor.{mod}"], fn)
            wrapper = _wrap(orig, name, rec, extras, RETRIES.get(name))
            for m in _library_modules():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        patched.append((m, key, orig))
        yield
    finally:
        for m, key, orig in reversed(patched):
            setattr(m, key, orig)


def assert_untraced() -> None:
    """Raise if any library binding is still a tracing wrapper."""
    for m in _library_modules():
        for key, val in vars(m).items():
            if getattr(val, "bench_traced", False):
                raise RuntimeError(f"tracing wrapper left installed at {m.__name__}.{key}")
