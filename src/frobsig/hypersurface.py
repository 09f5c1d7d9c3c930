"""Pushforward presentations for hypersurface quotients and free-rank totals.

For a hypersurface f in S = F_p[x_1..x_n] this module presents F_*^e of
S/f^k as the cokernel of the pair (M(f^k,e), M(f^{q-k},e)), decomposes
F_*^e of S[[u,v]]/(f+uv) into a free part plus q-1 explicit blocks, builds
the single-block presentation for S[[z]]/(f+z^2), and computes exact free
ranks from ranks at the origin alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .frobenius import FrobBasis, matrix_power
from .matfac import (
    MatFac,
    SummandCount,
    maltese,
    rank_mod_p,
    sharp,
    trivial_summand_counts,
)
from .ring import SparsePoly


def check_nonunit(f: SparsePoly) -> None:
    """Refuse f = 0 and any f with f(0) != 0, a unit of the local ring."""
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if f.constant_term():
        raise ValueError("f must vanish at the origin (f(0) != 0 makes f a unit)")


def _check_ring(f: SparsePoly, basis: FrobBasis) -> None:
    if f.p != basis.p or f.n != basis.n:
        raise ValueError("polynomial not in the ambient ring of the basis")


def _check_local(f: SparsePoly, basis: FrobBasis) -> None:
    _check_ring(f, basis)
    check_nonunit(f)


def _rank_at_origin(f: SparsePoly, j: int, basis: FrobBasis) -> int:
    return rank_mod_p(matrix_power(f, j, basis).at_origin(), basis.p)


def presentation_fk(f: SparsePoly, k: int, basis: FrobBasis) -> MatFac:
    """The pair (M(f^k,e), M(f^{q-k},e)); its product M(f^q,e) is f*I.

    Its cokernel presents F_*^e(S/f^k S).  Units of the local ring pass.
    """
    q = basis.q
    if not 1 <= k <= q - 1:
        raise ValueError(f"k must satisfy 1 <= k <= q-1 = {q - 1}")
    _check_ring(f, basis)
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonzero and nonconstant")
    phi = matrix_power(f, k, basis)
    psi = matrix_power(f, q - k, basis)
    return MatFac(phi, psi, f)


@dataclass
class UVBlock:
    k: int
    matfac: MatFac
    counts: SummandCount


@dataclass
class UVDecomposition:
    """F_*^e(S[[u,v]]/(f+uv)) = free part of rank r_e plus q-1 blocks."""

    q: int
    r_e: int
    blocks: list[UVBlock]

    @property
    def free_rank_total(self) -> int:
        # each block contributes its count of trivial (f+uv, 1) summands,
        # which already sums the ranks at the origin of both diagonal blocks
        return self.r_e + sum(b.counts.t for b in self.blocks)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "r_e": self.r_e,
            "blocks": [
                {
                    "k": b.k,
                    "t": b.counts.t,
                    "r": b.counts.r,
                    "size": b.matfac.size,
                }
                for b in self.blocks
            ],
            "free_rank_total": self.free_rank_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def uv_decomposition(f: SparsePoly, basis: FrobBasis) -> UVDecomposition:
    """The block decomposition of F_*^e(S[[u,v]]/(f+uv)).

    Block k is the factorization ([A^k, -vI; uI, A^{q-k}], companion) of
    f+uv, where A = M(f,e); its trivial-summand counts are attached.
    """
    _check_local(f, basis)
    blocks = []
    for k in range(1, basis.q):
        mf = maltese(presentation_fk(f, k, basis))
        blocks.append(UVBlock(k=k, matfac=mf, counts=trivial_summand_counts(mf)))
    return UVDecomposition(q=basis.q, r_e=basis.size, blocks=blocks)


def free_rank_uv(f: SparsePoly, basis: FrobBasis) -> int:
    """Free rank of F_*^e(S[[u,v]]/(f+uv)): r_e + 2 * sum_k t_k.

    t_k, the count of trivial (f,1) summands of (M(f^k,e), M(f^{q-k},e)),
    is the rank of M(f^{q-k},e) at the origin; each M(f^j,e) is built once.
    """
    _check_local(f, basis)
    return basis.size + 2 * sum(
        _rank_at_origin(f, j, basis) for j in range(1, basis.q)
    )


@dataclass
class Z2Presentation:
    """F_*^e(S[[z]]/(f+z^2)) as the cokernel of a single 2r_e x 2r_e pair."""

    q: int
    r_e: int
    matfac: MatFac
    counts: SummandCount

    @property
    def free_rank_total(self) -> int:
        # t of the assembled pair already sums the ranks at the origin of
        # both diagonal blocks, so it is the whole free rank
        return self.counts.t

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "r_e": self.r_e,
            "blocks": [
                {
                    "k": (self.q - 1) // 2,
                    "t": self.counts.t,
                    "r": self.counts.r,
                    "size": self.matfac.size,
                }
            ],
            "free_rank_total": self.free_rank_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def z2_presentation(f: SparsePoly, basis: FrobBasis) -> Z2Presentation:
    """The pair ([A^{(q-1)/2}, -zI; zI, A^{(q+1)/2}], companion) for f+z^2."""
    if basis.p == 2:
        raise ValueError("the f+z^2 presentation requires p odd")
    _check_local(f, basis)
    mf = sharp(presentation_fk(f, (basis.q - 1) // 2, basis))
    return Z2Presentation(
        q=basis.q,
        r_e=basis.size,
        matfac=mf,
        counts=trivial_summand_counts(mf),
    )


def free_rank_z2(f: SparsePoly, basis: FrobBasis) -> int:
    """Free rank of F_*^e(S[[z]]/(f+z^2)).

    Equals t + r for the pair (M(f^{(q-1)/2},e), M(f^{(q+1)/2},e)): the
    sum of their ranks at the origin.
    """
    if basis.p == 2:
        raise ValueError("the f+z^2 free rank requires p odd")
    _check_local(f, basis)
    half = (basis.q - 1) // 2
    return _rank_at_origin(f, half, basis) + _rank_at_origin(f, half + 1, basis)
