"""Exact Frobenius-pushforward computations for hypersurfaces over F_p.

Builds matrices of relations of f on the pushforward basis, manipulates
the resulting matrix factorizations, decomposes pushforwards over the
f+uv and f+z^2 hypersurfaces, and evaluates F-signatures as exact
rationals.
"""

from .frobenius import (
    FrobBasis,
    PolyMatrix,
    block_assemble,
    frobenius_decompose,
    matrix_of_relations,
    matrix_power,
)
from .fsig import (
    SignatureReport,
    WTable,
    empirical_sequence,
    expansion_check,
    fsignature_uv_closed,
    fsignature_z2_closed,
    sum_powers,
    w_values,
)
from .hypersurface import (
    UVDecomposition,
    Z2Presentation,
    free_rank_uv,
    free_rank_z2,
    presentation_fk,
    uv_decomposition,
    z2_presentation,
)
from .matfac import (
    MatFac,
    SummandCount,
    companion_matrix,
    companion_reduce,
    direct_sum,
    maltese,
    sharp,
    trivial_summand_counts,
    verify_matfac,
)
from .monomial import (
    DecompositionReport,
    MonomialData,
    decomposition_report,
    diagonalize_monomial_matrix,
    eta,
    ffrt_witness,
    free_rank_formula,
)
from .ring import PrimeField, SparsePoly, parse_poly

__all__ = [
    "FrobBasis",
    "PolyMatrix",
    "block_assemble",
    "frobenius_decompose",
    "matrix_of_relations",
    "matrix_power",
    "SignatureReport",
    "WTable",
    "empirical_sequence",
    "expansion_check",
    "fsignature_uv_closed",
    "fsignature_z2_closed",
    "sum_powers",
    "w_values",
    "UVDecomposition",
    "Z2Presentation",
    "free_rank_uv",
    "free_rank_z2",
    "presentation_fk",
    "uv_decomposition",
    "z2_presentation",
    "MatFac",
    "SummandCount",
    "companion_matrix",
    "companion_reduce",
    "direct_sum",
    "maltese",
    "sharp",
    "trivial_summand_counts",
    "verify_matfac",
    "DecompositionReport",
    "MonomialData",
    "decomposition_report",
    "diagonalize_monomial_matrix",
    "eta",
    "ffrt_witness",
    "free_rank_formula",
    "PrimeField",
    "SparsePoly",
    "parse_poly",
]

__version__ = "0.1.0"
