"""Schur block product on matrices with operator entries.

The package realizes the product A [] B = (a_ij b_ij) on n-by-n matrices
of d-by-d complex blocks, together with its factorization through an
isometry V, a flip unitary F and a left representation on the triple
tensor space C^n (x) C^d (x) C^n, and ships randomized checkers for every
identity and inequality that factorization yields.
"""

from .blocks import (
    BlockMatrix,
    adjoint_block,
    block_identity,
    block_matmul,
    block_matrix,
    block_matrix_from_json,
    block_matrix_to_json,
    col_norm,
    diag_block,
    flatten,
    flatten_lift,
    lift_schur_k,
    operator_from_json,
    operator_to_json,
    regroup_lift,
    row_norm,
    schur_block_product,
    schur_unit,
    unflatten,
    vector_from_json,
    vector_to_json,
    zero_block_matrix,
)
from .errors import ContractError, ShapeError
from .instances import (
    mix64,
    sample_block_matrix,
    sample_chunk,
    sample_lift,
    sample_vector,
)
from .linalg import (
    as_operator,
    hermitian_min_eig,
    psd_sqrt,
    spectral_norm,
)
from .stinespring import (
    StinespringSystem,
    build_lambda,
    build_rho,
    build_sigma,
    triple_dim,
)
from .verify import (
    PROPERTIES,
    PropertyResult,
    merge_results,
    row_norms_via_schur,
    run_property,
    verify_cauchy_schwarz,
    verify_cb_level,
    verify_decomposition,
    verify_factorization,
    verify_livshits,
    verify_norm_lemmas,
    verify_sandwich,
    verify_sharpness,
    verify_structure,
    worst_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "ContractError",
    "PROPERTIES",
    "PropertyResult",
    "ShapeError",
    "StinespringSystem",
    "adjoint_block",
    "as_operator",
    "block_identity",
    "block_matmul",
    "block_matrix",
    "block_matrix_from_json",
    "block_matrix_to_json",
    "build_lambda",
    "build_rho",
    "build_sigma",
    "col_norm",
    "diag_block",
    "flatten",
    "flatten_lift",
    "hermitian_min_eig",
    "lift_schur_k",
    "merge_results",
    "mix64",
    "operator_from_json",
    "operator_to_json",
    "psd_sqrt",
    "regroup_lift",
    "row_norm",
    "row_norms_via_schur",
    "run_property",
    "sample_block_matrix",
    "sample_chunk",
    "sample_lift",
    "sample_vector",
    "schur_block_product",
    "schur_unit",
    "spectral_norm",
    "triple_dim",
    "unflatten",
    "vector_from_json",
    "vector_to_json",
    "verify_cauchy_schwarz",
    "verify_cb_level",
    "verify_decomposition",
    "verify_factorization",
    "verify_livshits",
    "verify_norm_lemmas",
    "verify_sandwich",
    "verify_sharpness",
    "verify_structure",
    "worst_residual",
    "zero_block_matrix",
]
