"""Exact Frobenius-pushforward computations for hypersurfaces over F_p.

Builds matrices of relations of f on the pushforward basis, manipulates
the resulting matrix factorizations, decomposes pushforwards over the
f+uv and f+z^2 hypersurfaces, and evaluates F-signatures as exact
rationals.

Importing the package loads none of its modules: each public name is
imported from its module on first access, so a caller pays only for the
modules it uses.
"""

import importlib

_EXPORTS = {
    "frobenius": (
        "PolyMatrix",
        "block_assemble",
        "frobenius_decompose",
        "matrix_of_relations",
        "matrix_power",
    ),
    "fsig": (
        "SignatureReport",
        "WTable",
        "empirical_sequence",
        "expansion_check",
        "fsignature_uv_closed",
        "fsignature_z2_closed",
        "sum_powers",
        "w_values",
    ),
    "hypersurface": (
        "chain_dims",
        "free_rank_uv",
        "free_rank_z2",
        "jordan_type",
        "presentation_fk",
    ),
    "matfac": (
        "MatFac",
        "SummandCount",
        "UVDecomposition",
        "Z2Presentation",
        "companion_matrix",
        "companion_reduce",
        "direct_sum",
        "maltese",
        "sharp",
        "trivial_summand_counts",
        "uv_decomposition",
        "verify_matfac",
        "z2_presentation",
    ),
    "monomial": (
        "DecompositionReport",
        "MonomialData",
        "decomposition_report",
        "diagonalize_monomial_matrix",
        "eta",
        "ffrt_witness",
        "free_rank_formula",
    ),
    "ring": ("FrobBasis", "SparsePoly", "parse_poly"),
}

# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
