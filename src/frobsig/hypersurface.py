"""Pushforward presentations for hypersurface quotients and free-rank totals.

For a hypersurface f in S = F_p[x_1..x_n] this module presents F_*^e of
S/f^k as the cokernel of the pair (M(f^k,e), M(f^{q-k},e)), decomposes
F_*^e of S[[u,v]]/(f+uv) into a free part plus q-1 explicit blocks, and
builds the single-block presentation for S[[z]]/(f+z^2).

Free ranks need only the matrices at the origin, and M(g,e) at the origin is
the matrix of multiplication by g on the Artinian ring
A = F_p[x]/(x_1^q, ..., x_n^q).  So the free ranks are dimensions of the
ideals f^j A, found by linear algebra over F_p on A with no polynomial
matrix formed.  Only ``ring`` is imported with this module; the matrix
constructions import ``frobenius`` and ``matfac`` when they run, so the
free ranks load neither.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import TYPE_CHECKING, Iterator

from .ring import SparsePoly, check_prime, echelon

if TYPE_CHECKING:
    from .frobenius import FrobBasis
    from .matfac import MatFac


DEFAULT_MAX_SIZE = 10 ** 6

# Each route's work, in its unit, is the largest q^a * c over its pairs (a, c)
# for q = p^e and n variables.  Each of the q^n columns of M(f^k, e) holds as
# many terms as f^k, at most ``terms``; the chain f^j A has up to q steps on
# the q^n-dimensional A; decompose sums eta over 2^n labels for each k < q.
ROUTE_WORK = {
    "matrix": ("matrix cells", lambda n, terms: ((2 * n, 1), (n, terms))),
    "free-rank": ("units of chain work", lambda n, terms: ((n + 2, 1),)),
    "decompose": ("eta terms", lambda n, terms: ((1, 2 ** n),)),
}


def check_work(route: str, max_size: int, e: int, n: int, p: int, terms=1) -> None:
    """Raise ResourceWarning when the work of ``route`` exceeds ``max_size``."""
    check_prime(p)
    unit, pairs = ROUTE_WORK[route]
    pairs = pairs(n, terms)
    # a prime p is at least 2 and c >= 2^(bitlen(c) - 1), so the work is at
    # least 2^bits: a huge e or n is refused before p^e is formed
    bits = max(e * a + c.bit_length() - 1 for a, c in pairs)
    work = f"at least 2^{bits}"
    if bits < max_size.bit_length():
        q = p ** e
        work = max(q ** a * c for a, c in pairs)
        if work <= max_size:
            return
    raise ResourceWarning(
        f"requested computation needs {work} {unit}, over the bound {max_size}"
    )


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


class _Artinian:
    """A = F_p[x]/(x_1^q, ..., x_n^q) on the monomial basis of ``basis``.

    An element is a sparse dict {basis index: coefficient in [1, p)}.  The
    product x^i * x^j is x^(i+j) unless some exponent reaches q, that is
    unless adding i and j in base q carries; each carry lowers the base-q
    digit sum of i + j by q - 1, so a table of digit sums decides it.
    """

    def __init__(self, basis: FrobBasis):
        self.basis = basis
        self.p = basis.p
        q = basis.q
        digit_sums = [0] * (2 * basis.size - 1)
        for m in range(1, len(digit_sums)):
            digit_sums[m] = digit_sums[m // q] + m % q
        self.digit_sums = digit_sums

    def element(self, f: SparsePoly) -> dict[int, int]:
        q = self.basis.q
        return {
            self.basis.index_of(exps): c
            for exps, c in f.terms.items()
            if max(exps) < q
        }

    def times(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        ds = self.digit_sums
        v_terms = [(j, c, ds[j]) for j, c in v.items()]
        out: dict[int, int] = {}
        for i, c_u in u.items():
            d_i = ds[i]
            for j, c_v, d_j in v_terms:
                m = i + j
                if d_i + d_j == ds[m]:
                    out[m] = out.get(m, 0) + c_u * c_v
        p = self.p
        return {m: c % p for m, c in out.items() if c % p}

    def power(self, g: dict[int, int], m: int) -> dict[int, int]:
        """g^m in A by square-and-multiply, truncated at every step."""
        result = {0: 1}
        while m:
            if m & 1:
                result = self.times(result, g)
            m >>= 1
            if m:
                g = self.times(g, g)
        return result

    def image(self, rows, g: dict[int, int]) -> dict[int, dict[int, int]]:
        """Echelon basis of g * V, where the elements ``rows`` span V."""
        return echelon((self.times(row, g) for row in rows), self.p)

    def monomials(self) -> Iterator[dict[int, int]]:
        """The monomial basis of A, which spans A."""
        return ({i: 1} for i in range(self.basis.size))


def presentation_fk(f: SparsePoly, k: int, basis: FrobBasis) -> MatFac:
    """The pair (M(f^k,e), M(f^{q-k},e)); its product M(f^q,e) is f*I.

    Its cokernel presents F_*^e(S/f^k S).  Units of the local ring pass.
    """
    from .frobenius import matrix_power
    from .matfac import MatFac

    q = basis.q
    if not 1 <= k <= q - 1:
        raise ValueError(f"k must satisfy 1 <= k <= q-1 = {q - 1}")
    _check_ring(f, basis)
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonzero and nonconstant")
    phi = matrix_power(f, k, basis)
    psi = matrix_power(f, q - k, basis)
    return MatFac(phi, psi, f)


# Named tuples, not dataclasses: this module loads on every CLI call, and
# importing dataclasses (with inspect) would add to the start-up of each.


class UVBlock(namedtuple("UVBlock", "k matfac counts")):
    """Block k of the f+uv decomposition: its pair and trivial-summand counts."""

    __slots__ = ()


class UVDecomposition(namedtuple("UVDecomposition", "q r_e blocks")):
    """F_*^e(S[[u,v]]/(f+uv)) = free part of rank r_e plus q-1 blocks."""

    __slots__ = ()

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
    from .matfac import maltese, trivial_summand_counts

    _check_local(f, basis)
    blocks = []
    for k in range(1, basis.q):
        mf = maltese(presentation_fk(f, k, basis))
        blocks.append(UVBlock(k=k, matfac=mf, counts=trivial_summand_counts(mf)))
    return UVDecomposition(q=basis.q, r_e=basis.size, blocks=blocks)


def free_rank_uv(f: SparsePoly, basis: FrobBasis) -> int:
    """Free rank of F_*^e(S[[u,v]]/(f+uv)): q^n + 2 * sum_{j=1}^{q-1} dim f^j A.

    The count of trivial (f,1) summands of (M(f^k,e), M(f^{q-k},e)) is the
    rank of M(f^{q-k},e) at the origin, which is dim f^{q-k} A.  The chain
    A > fA > f^2A > ... is walked by multiplying an echelon basis of
    f^{j-1} A by f; it reaches 0 by j = q, since f^q = f(x^q) = 0 in A.
    """
    _check_local(f, basis)
    ring = _Artinian(basis)
    f_a = ring.element(f)
    total = basis.size
    span = ring.image(ring.monomials(), f_a)
    while span:
        total += 2 * len(span)
        span = ring.image(span.values(), f_a)
    return total


class Z2Presentation(namedtuple("Z2Presentation", "q r_e matfac counts")):
    """F_*^e(S[[z]]/(f+z^2)) as the cokernel of a single 2r_e x 2r_e pair."""

    __slots__ = ()

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
    from .matfac import sharp, trivial_summand_counts

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
    """Free rank of F_*^e(S[[z]]/(f+z^2)): dim f^{(q-1)/2} A + dim f^{(q+1)/2} A.

    Equals t + r for the pair (M(f^{(q-1)/2},e), M(f^{(q+1)/2},e)): the
    sum of their ranks at the origin.  g = f^{(q-1)/2} is formed in A, so
    f^j is never expanded in S; one more chain step gives f^{(q+1)/2} A.
    Forming g by squaring is cheaper than walking (q+1)/2 chain steps, each
    an elimination over all of f^{j-1} A.
    """
    if basis.p == 2:
        raise ValueError("the f+z^2 free rank requires p odd")
    _check_local(f, basis)
    ring = _Artinian(basis)
    f_a = ring.element(f)
    g_span = ring.image(ring.monomials(), ring.power(f_a, (basis.q - 1) // 2))
    return len(g_span) + len(ring.image(g_span.values(), f_a))
