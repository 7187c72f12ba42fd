#!/usr/bin/env python3
"""Print the boundary-zero table of a checkout: |1+z|^(2p), p = 1-4.

    python3 tools/boundary_table.py <checkout>

Each input Q = |1+z|^(2p) = P*P, with P = (1+z)^p, has a zero of order
2p on the circle at z = -1, where the Schur limit converges slowly and
its rounding decides the outcome.  For each p and each block cap n_max
in (4096, 2^32), one row gives what factor1d.factor reports at its
defaults otherwise: converged, N_used, residual_sup / scale, the largest
coefficient error max_k |P_k - C(p, k)| against the exact binomial
factor (both in the gauge with P(0) >= 0), the outer verdict and
degraded_reason ("-" when empty).  Fields are separated by runs of
spaces; degraded_reason, which has spaces of its own, is the last.  A
call that raises gives the row "raised <exception type>" after n_max,
and the table goes on.

The library is imported from <checkout>/src, with BLAS on one thread
and nothing in the checkout written.  A change that keeps the limit's
rounding prints the same table as its parent; one that moves it shows
which rows moved.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # before the import of _checkout, so none is cached
from _checkout import use_checkout  # noqa: E402

N_MAX = (4096, 2**32)
HEADER = ("p", "n_max", "converged", "N_used", "residual/scale", "coeff_error", "outer",
          "degraded_reason")
WIDTHS = (2, 11, 10, 10, 15, 12, 10)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not use_checkout(Path(argv[0]).resolve()):
        return 2
    import numpy as np
    from specfactor.factor1d import factor
    from specfactor.poly import MatrixAnalyticPoly1, adjoint_product

    print("  ".join(f"{h:<{w}}" for h, w in zip(HEADER, WIDTHS + (0,))).rstrip())
    for p in range(1, 5):
        exact = np.array([math.comb(p, k) for k in range(p + 1)], dtype=float)
        q = adjoint_product(MatrixAnalyticPoly1([[[c]] for c in exact]))
        for n_max in N_MAX:
            try:
                phat, rep = factor(q, n_max=n_max)
            except Exception as exc:  # one row, not the whole table
                row = (p, n_max, f"raised {type(exc).__name__}")
            else:
                error = max(abs(complex(phat.coeff(k)[0, 0]) - exact[k]) for k in range(p + 1))
                row = (p, n_max, "yes" if rep.converged else "no", rep.n_used,
                       f"{rep.residual_sup / q.scale:.2e}", f"{error:.2e}", rep.outer_verdict,
                       rep.degraded_reason or "-")
            print("  ".join(f"{v:<{w}}" for v, w in zip(map(str, row), WIDTHS + (0,))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
