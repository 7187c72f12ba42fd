"""The preamble the tools share to run the library of one checkout.

A tool sets sys.dont_write_bytecode before it imports this module, so
that no bytecode is cached for it either, then calls use_checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout(root) -> bool:
    """Run BLAS on one thread, write no bytecode, put <root>/src and
    <root>/bench first on sys.path and import specfactor.  True when it
    came from <root>/src; else False, with a message on stderr, on which
    the tool exits with status 2."""
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "bench")]
    import specfactor

    if Path(specfactor.__file__).resolve().is_relative_to(Path(root).resolve() / "src"):
        return True
    print(f"imported specfactor from {specfactor.__file__}, not {root}/src", file=sys.stderr)
    return False
