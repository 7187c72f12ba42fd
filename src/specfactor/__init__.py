"""Spectral factorization of matrix trigonometric polynomials.

Factors matrix-valued Laurent polynomials that are nonnegative on the
unit circle as Q = P*P with P analytic and outer, and strictly positive
two-variable polynomials as finite sums of squares of analytic
polynomials, with independent grid verification and a scalar root-based
cross-check.
"""

from .linalg import (
    EigenPair,
    eig_hermitian,
    psd_check,
    psd_sqrt,
    schur_complement,
    range_restricted_solve,
)
from .poly import (
    MatrixLaurentPoly1,
    MatrixAnalyticPoly1,
    MatrixLaurentPoly2,
    MatrixAnalyticPoly2,
    eval1,
    eval2,
    adjoint_product,
    adjoint_product_list2,
    block_toeplitz,
    toeplitz_psd_check,
    load_poly,
    save_poly,
)
from .factor1d import (
    SchurResult,
    FactorReport,
    truncated_schur,
    schur_limit,
    factor,
    normalize_gauge,
    scalar_root_factor,
)
from .factor2d import (
    LiftPlan,
    cesaro_smooth,
    inverse_cesaro,
    remainder_bound,
    choose_truncation,
    lift_to_block,
    unlift_factor,
    factor_cesaro,
    factor_strict,
)
from .verify import GridSpec, grid_min_eig, residual, outer_check

__version__ = "0.1.0"

__all__ = [
    "EigenPair",
    "eig_hermitian",
    "psd_check",
    "psd_sqrt",
    "schur_complement",
    "range_restricted_solve",
    "MatrixLaurentPoly1",
    "MatrixAnalyticPoly1",
    "MatrixLaurentPoly2",
    "MatrixAnalyticPoly2",
    "eval1",
    "eval2",
    "adjoint_product",
    "adjoint_product_list2",
    "block_toeplitz",
    "toeplitz_psd_check",
    "load_poly",
    "save_poly",
    "SchurResult",
    "FactorReport",
    "truncated_schur",
    "schur_limit",
    "factor",
    "normalize_gauge",
    "scalar_root_factor",
    "LiftPlan",
    "cesaro_smooth",
    "inverse_cesaro",
    "remainder_bound",
    "choose_truncation",
    "lift_to_block",
    "unlift_factor",
    "factor_cesaro",
    "factor_strict",
    "GridSpec",
    "grid_min_eig",
    "residual",
    "outer_check",
    "__version__",
]
