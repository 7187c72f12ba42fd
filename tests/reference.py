"""Reference constructions the tests compare the library's stored arrays
against; not part of the library."""

import numpy as np


def laurent_stack(coeff, degree: int) -> np.ndarray:
    """Coefficients Q_d = coeff(d), |d| <= degree, stacked for
    toeplitz_entries: stack[degree + 1 + d] = Q_d, plus zero slabs at
    d = +-(degree + 1) for clipped out-of-band lookups."""
    coeffs = [coeff(d) for d in range(-degree, degree + 1)]
    stack = np.zeros((2 * degree + 3,) + coeffs[0].shape, dtype=complex)
    stack[1:-1] = coeffs
    return stack
