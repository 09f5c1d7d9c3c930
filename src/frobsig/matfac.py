"""Matrix-factorization calculus.

A matrix factorization of f is a pair (phi, psi) of square matrices with
phi*psi = psi*phi = f*I.  This module holds such pairs, forms direct sums,
the block constructions producing factorizations of f+uv and f+z^2, counts
the trivial summands (f,1) and (1,f) by rank at the origin, and performs the
constructive companion-block reductions with explicit elementary matrices:
a reduction's certificate is ``left_ops`` and ``right_ops``, the factors
(i, j, c) of left and right in product order, each the identity with c at
(i, j), and a swap is recorded as three transvections and a dilation by -1
(over F_2, where -1 = 1, the transvections alone).
From these it decomposes F_*^e of S[[u,v]]/(f+uv) into a free part plus q-1
explicit blocks and builds the single-block presentation for S[[z]]/(f+z^2);
what the two targets are is declared in ``hypersurface``.
Building a pair checks nothing: every pair the package builds factors f by
algebra, and :func:`verify_matfac` is the one check, run where it is asked
for.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .frobenius import PolyMatrix, _add_into
from .hypersurface import check_local, check_target, presentation_fk
from .ring import RESERVED_NAMES, FrobBasis, SparsePoly, echelon


def verify_matfac(phi: PolyMatrix, psi: PolyMatrix, f: SparsePoly) -> bool:
    """True iff phi*psi == psi*phi == f*I exactly.

    For f != 0 only phi*psi is formed: the polynomial ring is a domain, so
    phi*psi = f*I gives det(phi) * det(psi) = f^size != 0, phi is invertible
    over its fraction field, psi = f * phi^-1, and psi*phi = f*I follows.
    For f = 0 that argument fails (phi = E_12, psi = E_11 has phi*psi = 0
    but psi*phi != 0), so both products are checked.
    """
    if phi.rows != phi.cols or psi.rows != psi.cols:
        raise ValueError("matrix factorization requires square matrices")
    if phi.rows != psi.rows:
        raise ValueError("matrix factorization requires equal sizes")
    target = PolyMatrix.scalar(phi.rows, f)
    if phi * psi != target:
        return False
    return not f.is_zero() or psi * phi == target


# Records across the package are named tuples, not dataclasses: importing
# dataclasses (with inspect) would add about 10 ms to the start-up of every
# CLI call that loads the module.


class MatFac(namedtuple("MatFac", "phi psi f")):
    """A pair (phi, psi) meant to factor f; building one verifies nothing.

    Check a pair with ``verify_matfac(mf.phi, mf.psi, mf.f)`` or with the
    ``frobsig verify`` command.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return self.phi.rows

    def __repr__(self) -> str:
        return f"MatFac(size={self.size}, f={self.f!s})"


class SummandCount(namedtuple("SummandCount", "t r reduced_size")):
    """Counts of trivial summands: t copies of (f,1) and r copies of (1,f)."""

    __slots__ = ()

    def __new__(cls, t, r, reduced_size):
        if t < 0 or r < 0 or reduced_size < 0:
            raise ValueError("inconsistent summand counts")
        return super().__new__(cls, t, r, reduced_size)


def direct_sum(a: MatFac, b: MatFac) -> MatFac:
    """Block-diagonal sum; both factorizations must factor the same f."""
    if a.f != b.f:
        raise ValueError("direct sum requires the same factored element")
    f = a.f
    size = a.size + b.size

    def diagonal(top: PolyMatrix, bottom: PolyMatrix) -> PolyMatrix:
        m = PolyMatrix(size, size, f.p, f.n, f.names)
        m.add_block(0, 0, top)
        m.add_block(a.size, a.size, bottom)
        return m

    return MatFac(diagonal(a.phi, b.phi), diagonal(a.psi, b.psi), f)


# the variables the constructions append: u, v for f+uv and z for f+z^2
_U, _V, _Z = RESERVED_NAMES


def _glue(mf: MatFac, extra: tuple[str, ...]) -> MatFac:
    """([phi, -vI; uI, psi], [psi, vI; -uI, phi]), a factorization of f + uv.

    The ring of mf gains the variables ``extra``; u is the first of them and
    v the last, so one added variable z gives f + z^2.
    """
    names = mf.f.names + extra
    phi, psi, f = (part.extend(names) for part in mf)
    n = len(names)
    u, v = (SparsePoly.variable(i, f.p, n, names) for i in (n - len(extra) + 1, n))
    uI, vI = PolyMatrix.scalar(mf.size, u), PolyMatrix.scalar(mf.size, v)
    return MatFac(
        PolyMatrix.block([[phi, -vI], [uI, psi]]),
        PolyMatrix.block([[psi, vI], [-uI, phi]]),
        f + u * v,
    )


def maltese(mf: MatFac) -> MatFac:
    """Factorization ([phi, -vI; uI, psi], [psi, vI; -uI, phi]) of f + uv.

    Built from the factorization (phi, psi) of f over the ring with fresh
    variables u, v appended.
    """
    return _glue(mf, (_U, _V))


def sharp(mf: MatFac) -> MatFac:
    """Factorization of f + z^2: :func:`maltese` with u = v = z; p odd."""
    check_target("z2", mf.f.p)
    return _glue(mf, (_Z,))


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of a matrix given as sparse rows {col: value}."""
    return len(echelon(rows, p))


def trivial_summand_counts(mf: MatFac) -> SummandCount:
    """Counts (t, r) of trivial summands (f,1) and (1,f) in mf.

    Equivalence transformations are invertible over the local ring at the
    origin, hence invertible mod its maximal ideal, so the ranks of phi and
    psi at the origin are equivalence invariants; on a canonical splitting
    they evaluate to exactly t = rank(psi(0)) and r = rank(phi(0)).
    """
    p = mf.f.p
    t = rank_mod_p(mf.psi.at_origin(), p)
    r = rank_mod_p(mf.phi.at_origin(), p)
    return SummandCount(t=t, r=r, reduced_size=mf.size - t - r)


# -- the decompositions over the two targets -----------------------------------


class UVBlock(namedtuple("UVBlock", "k matfac counts")):
    """Block k of a decomposition: its pair and trivial-summand counts."""

    __slots__ = ()


class _BlockReport:
    """JSON of a pushforward as a free part of rank r_e plus its blocks."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "r_e": self.r_e,
            "blocks": [
                {"k": b.k, "t": b.counts.t, "r": b.counts.r, "size": b.matfac.size}
                for b in self.blocks
            ],
            "free_rank_total": self.free_rank_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


class UVDecomposition(_BlockReport, namedtuple("UVDecomposition", "q r_e blocks")):
    """F_*^e(S[[u,v]]/(f+uv)) = free part of rank r_e plus q-1 blocks."""

    __slots__ = ()

    @property
    def free_rank_total(self) -> int:
        # each block contributes its count of trivial (f+uv, 1) summands,
        # which already sums the ranks at the origin of both diagonal blocks
        return self.r_e + sum(b.counts.t for b in self.blocks)


def uv_decomposition(f: SparsePoly, basis: FrobBasis) -> UVDecomposition:
    """The block decomposition of F_*^e(S[[u,v]]/(f+uv)).

    Block k is the factorization ([A^k, -vI; uI, A^{q-k}], companion) of
    f+uv, where A = M(f,e); its trivial-summand counts are attached.
    """
    check_local(f, basis)
    blocks = []
    for k in range(1, basis.q):
        mf = maltese(presentation_fk(f, k, basis))
        blocks.append(UVBlock(k=k, matfac=mf, counts=trivial_summand_counts(mf)))
    return UVDecomposition(q=basis.q, r_e=basis.size, blocks=blocks)


class Z2Presentation(_BlockReport, namedtuple("Z2Presentation", "q r_e matfac counts")):
    """F_*^e(S[[z]]/(f+z^2)) as the cokernel of a single 2r_e x 2r_e pair."""

    __slots__ = ()

    @property
    def free_rank_total(self) -> int:
        # t of the assembled pair already sums the ranks at the origin of
        # both diagonal blocks, so it is the whole free rank
        return self.counts.t

    @property
    def blocks(self) -> list:
        return [UVBlock((self.q - 1) // 2, self.matfac, self.counts)]


def z2_presentation(f: SparsePoly, basis: FrobBasis) -> Z2Presentation:
    """The pair ([A^{(q-1)/2}, -zI; zI, A^{(q+1)/2}], companion) for f+z^2."""
    check_target("z2", basis.p)
    check_local(f, basis)
    mf = sharp(presentation_fk(f, (basis.q - 1) // 2, basis))
    return Z2Presentation(
        q=basis.q,
        r_e=basis.size,
        matfac=mf,
        counts=trivial_summand_counts(mf),
    )


# -- companion-block reductions ------------------------------------------------
#
# The shapes below are square matrices over a polynomial ring built from a
# single element b (plus designated corner entries).  Each is reduced, by an
# explicit recorded sequence of elementary row/column operations, to a sparse
# form whose nonzero entries are signed powers of b and the corner entries.
#
# Each shape is declared once in _SHAPES: the arguments it takes besides b,
# its least size, the parity its size needs (or None), and its layout(size,
# k) = (chains, entries, order).  Every shape has b on the diagonal.  A chain
# is an index range idx with 1 at (idx[t+1], idx[t]); the reduction clears
# each.  An entry is a position and what fills it: "corner", "corner2" or 1.
# The order is None or the (rows, cols) permutation that ends the reduction.

CHAIN = "chain"
EVEN = "even"
ODD = "odd"
SPLIT = "split"
UV = "uv"

_SHAPES = {
    CHAIN: ((), 2, None, lambda n, k: ([range(n)], [], None)),
    EVEN: (("corner",), 4, 0, lambda n, k: (
        [range(0, n, 2), range(1, n, 2)], [((0, n - 1), "corner")], None)),
    ODD: (("corner", "corner2"), 5, 1, lambda n, k: (
        [range(0, n, 2), range(1, n, 2)],
        [((0, n - 2), "corner"), ((1, n - 1), "corner2")], None)),
    SPLIT: (("corner", "corner2", "k"), 2, None, lambda n, k: (
        [range(k), range(k, n)],
        [((k, k - 1), "corner2"), ((0, n - 1), "corner")],
        ([*range(1, k), *range(k + 1, n), 0, k],
         [*range(k - 1), *range(k, n - 1), k - 1, n - 1]))),
    UV: (("corner",), 2, None, lambda n, k: (
        [range(n - 1)], [((n - 1, n - 2), 1), ((0, n - 1), "corner")],
        ([*range(1, n - 1), 0, n - 1], range(n)))),
}


class CompanionReduction(namedtuple(
    "CompanionReduction", "matrix left right reduced left_ops right_ops"
)):
    """Result of a companion reduction: left * matrix * right == reduced.

    ``left_ops`` and ``right_ops`` list the elementary factors of left and
    right in product order, each as (i, j, c): the identity with c at (i, j).
    """

    __slots__ = ()

    def verify(self) -> bool:
        return self.left * self.matrix * self.right == self.reduced

    def elementary_factors(self):
        """(left_factors, right_factors): products recover left and right.

        Every factor is an elementary matrix: a transvection I + c*E_ij, or a
        dilation by the unit -1.
        """
        m = self.matrix

        def factor(i, j, c):
            e = PolyMatrix.identity(m.rows, m.p, m.n, m.names)
            e.set_entry(i, j, c)
            return e

        left, right = self.left_ops, self.right_ops
        return [factor(*op) for op in left], [factor(*op) for op in right]


class _Work:
    """The working matrix with its row and column operations applied in place.

    ``matrix`` starts as a copy of A, and ``left`` and ``right`` at I; each
    operation edits the sparse columns of ``matrix`` and of ``left`` (a row
    operation) or ``right`` (a column operation), so left * A * right equals
    ``matrix`` after every step.  Each operation is recorded once, as the
    factors (i, j, c) it multiplies by, at the front of ``left_ops`` or the
    end of ``right_ops``, so both stay in product order.  Adding 0 times a
    row or column is the identity, so it is neither applied nor recorded.
    """

    def __init__(self, a: PolyMatrix):
        ring = (a.p, a.n, a.names)
        self.matrix = PolyMatrix(a.rows, a.cols, *ring, [dict(col) for col in a.data])
        self.left = PolyMatrix.identity(a.rows, *ring)
        self.right = PolyMatrix.identity(a.rows, *ring)
        self.one = SparsePoly.one(*ring)
        self.left_ops, self.right_ops = [], []

    def row_add(self, i, j, poly):
        # row_i += poly * row_j
        if poly.is_zero():
            return
        for m in (self.matrix, self.left):
            for col in m.data:
                entry = col.get(j)
                if entry is not None:
                    _add_into(col, i, poly * entry)
        self.left_ops.insert(0, (i, j, poly))

    def col_add(self, j, i, poly):
        # col_j += col_i * poly; as a right factor this is I + poly*E_ij
        if poly.is_zero():
            return
        for m in (self.matrix, self.right):
            target = m.data[j]
            for r, entry in m.data[i].items():
                _add_into(target, r, entry * poly)
        self.right_ops.append((i, j, poly))

    def permute(self, row_order, col_order):
        one, neg = self.one, -self.one
        for seq, axis in ((row_order, "row"), (col_order, "col")):
            perm = list(seq)
            # realize the permutation "new position k holds old index perm[k]"
            # as a sequence of transpositions applied to the working matrix
            current = list(range(len(perm)))
            for k, want in enumerate(perm):
                pos = current.index(want)
                if pos != k:
                    current[k], current[pos] = current[pos], current[k]
                    # the transposition P = E_k,pos(1) E_pos,k(-1) E_k,pos(1) S_k(-1);
                    # over F_2, where -1 = 1, the three transvections are P
                    swap = [(k, pos, one), (pos, k, neg), (k, pos, one)]
                    if neg != one:
                        swap.append((k, k, neg))
                    if axis == "row":
                        for m in (self.matrix, self.left):
                            for col in m.data:
                                at_k, at_pos = col.pop(k, None), col.pop(pos, None)
                                if at_k is not None:
                                    col[pos] = at_k
                                if at_pos is not None:
                                    col[k] = at_pos
                        self.left_ops[:0] = swap
                    else:
                        for m in (self.matrix, self.right):
                            m.data[k], m.data[pos] = m.data[pos], m.data[k]
                        self.right_ops += swap


def companion_matrix(
    shape: str,
    size: int,
    b: SparsePoly,
    corner: SparsePoly | None = None,
    corner2: SparsePoly | None = None,
    k: int | None = None,
) -> PolyMatrix:
    """Build the companion-style matrix of the given shape, b on the diagonal.

    Each shape takes exactly the arguments named here and refuses others:
    chain: size >= 2; 1 on the first subdiagonal.
    even:  even size >= 4, corner; 1 on the second subdiagonal, corner at
           (0, size-1).
    odd:   odd size >= 5, corner, corner2; as even, but corner at (0, size-2)
           and corner2 at (1, size-1).
    split: size >= 2, corner, corner2, 1 <= k <= size-1; chains of sizes k
           and size-k glued by corner2 at (k, k-1), corner at (0, size-1).
    uv:    size >= 2, corner; chain with corner at (0, size-1).
    """
    if shape not in _SHAPES:
        raise ValueError(f"unsupported shape {shape!r}")
    takes, least, parity, layout = _SHAPES[shape]
    fill = {"corner": corner, "corner2": corner2, "k": k}
    for name, value in fill.items():
        if (value is None) == (name in takes):
            verb = "needs" if value is None else "takes no"
            raise ValueError(f"{shape} shape {verb} {name}")
    if size < least or parity is not None and size % 2 != parity:
        kind = {None: "", 0: "even ", 1: "odd "}[parity]
        raise ValueError(f"{shape} shape needs {kind}size >= {least}")
    if k is not None and not 1 <= k <= size - 1:
        raise ValueError(f"{shape} shape needs 1 <= k <= size-1")
    chains, entries, _ = layout(size, k)
    ring = (b.p, b.n, b.names)
    fill[1] = SparsePoly.one(*ring)
    m = PolyMatrix(size, size, *ring)
    for i in range(size):
        m.set_entry(i, i, b)
    for idx in chains:
        for t in range(len(idx) - 1):
            m.set_entry(idx[t + 1], idx[t], fill[1])
    for (i, j), arg in entries:
        m.set_entry(i, j, fill[arg])
    return m


def _reduce_chain(work: _Work, idx: range, b: SparsePoly) -> None:
    """Clear a chain supported on the index sublattice ``idx``.

    Afterwards the sublattice carries subdiagonal units and the single entry
    (-1)^(m-1) * b^m at (idx[0], idx[-1]) for a chain of length m.
    """
    for step in range(len(idx) - 1):
        i0 = idx[0]
        jcur, jnext = idx[step], idx[step + 1]
        c = work.matrix.entry(i0, jcur)
        work.row_add(i0, jnext, -c)
        work.col_add(jnext, jcur, -b)


def companion_reduce(
    shape: str,
    size: int,
    b: SparsePoly,
    corner: SparsePoly | None = None,
    corner2: SparsePoly | None = None,
    k: int | None = None,
) -> CompanionReduction:
    """Reduce a companion-shape matrix by explicit elementary operations.

    Takes exactly the arguments of :func:`companion_matrix`, which builds A.
    Each chain of the shape is cleared, leaving a signed power of b in its
    first row, and the split and uv shapes then permute rows and columns so
    that the reduced matrix ends in a 2 x 2 block.  Returns left, right and
    reduced with left * A * right == reduced, where left and right are
    products of the recorded elementary operations.  Nothing is checked
    here; ``CompanionReduction.verify`` multiplies the three out.
    """
    a = companion_matrix(shape, size, b, corner, corner2, k)
    *_, layout = _SHAPES[shape]
    chains, _, order = layout(size, k)
    work = _Work(a)
    for idx in chains:
        _reduce_chain(work, idx, b)
    if order:
        work.permute(*order)
    return CompanionReduction(
        matrix=a,
        left=work.left,
        right=work.right,
        reduced=work.matrix,
        left_ops=work.left_ops,
        right_ops=work.right_ops,
    )
