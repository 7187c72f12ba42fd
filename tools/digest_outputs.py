#!/usr/bin/env python3
"""Print three SHA-256 digests over the benchmark workloads of a checkout.

    python3 tools/digest_outputs.py <checkout> [--per-input]

For seeds 1-3 of every workload in <checkout>/bench/workloads.py, each
input is run once through the workload's top-level call.  The first
line folds the digest of bench/checks.py (the default report JSON,
every factor and oracle coefficient's bytes and the input screen) into
one hash.  That digest sorts the coefficients, so it cannot see a change
in the order a factor lists them; the second line folds the repr of the
benchmark's own residual and oracle difference from checks.check, which
sum over that order, so it moves with any rounding the benchmark reports.
The third line folds every input polynomial itself: the keys of q.coeffs
in listing order and the bytes of each block, so it moves with any change
to the canonicalizer or to the listing order, even where the outputs do
not show it.  The library is imported from <checkout>/src, and nothing
in the checkout is written.  Two trees whose inputs and outputs are
bit-identical print the same three lines; BLAS runs single-threaded, as
in the benchmark.  With --per-input, one line per input follows the
three: its workload, seed and label, then one SHA-256 over everything
that input folds into the three, so diffing two trees' outputs names
the inputs that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # before the import of _checkout, so none is cached
from _checkout import use_checkout  # noqa: E402

SEEDS = (1, 2, 3)


def fold(hashes, *parts: bytes) -> None:
    for h in hashes:
        for part in parts:
            h.update(part)


def main(argv: list[str]) -> int:
    per_input = argv[1:] == ["--per-input"]
    if len(argv) != 1 + per_input:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not use_checkout(Path(argv[0]).resolve()):
        return 2
    import checks
    import workloads

    outputs, checked, inputs = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    lines = []
    for name, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for case in workloads.build_inputs(name, seed):
                label = f"{name} {seed} {case.label}"
                own = hashlib.sha256()  # this input's share of all three
                fold((inputs, own), label.encode())
                for index, block in case.q.coeffs.items():
                    fold((inputs, own), repr(index).encode(), block.tobytes())
                out = w.call(case)
                fold((outputs, own), label.encode(), checks.digest(out).encode())
                with contextlib.redirect_stdout(io.StringIO()):  # its "no oracle" notes
                    res = checks.check(case, out)
                fold((checked, own), label.encode(), repr((res.rel_residual, res.oracle)).encode())
                lines.append(f"{label} {own.hexdigest()}")
    print(outputs.hexdigest())
    print(checked.hexdigest())
    print(inputs.hexdigest())
    if per_input:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
