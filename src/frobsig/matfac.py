"""Matrix-factorization calculus.

A matrix factorization of f is a pair (phi, psi) of square matrices with
phi*psi = psi*phi = f*I.  This module holds such pairs, forms direct sums,
the block constructions producing factorizations of f+uv and f+z^2, counts
the trivial summands (f,1) and (1,f) by rank at the origin, and performs the
constructive companion-block reductions with explicit elementary matrices.
Building a pair checks nothing: every pair the package builds factors f by
algebra, and :func:`verify_matfac` is the one check, run where it is asked
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frobenius import PolyMatrix
from .ring import SparsePoly


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


@dataclass(repr=False, slots=True)
class MatFac:
    """A pair (phi, psi) meant to factor f; building one verifies nothing.

    Check a pair with ``verify_matfac(mf.phi, mf.psi, mf.f)`` or with the
    ``frobsig verify`` command.
    """

    phi: PolyMatrix
    psi: PolyMatrix
    f: SparsePoly

    @property
    def size(self) -> int:
        return self.phi.rows

    def __repr__(self) -> str:
        return f"MatFac(size={self.size}, f={self.f!s})"


@dataclass(frozen=True)
class SummandCount:
    """Counts of trivial summands: t copies of (f,1) and r copies of (1,f)."""

    t: int
    r: int
    reduced_size: int

    def __post_init__(self):
        if self.t < 0 or self.r < 0 or self.reduced_size < 0:
            raise ValueError("inconsistent summand counts")


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


def _extend_pair(mf: MatFac, extra: tuple[str, ...]):
    for name in extra:
        if name in mf.f.names:
            raise ValueError(f"variable {name!r} already in the ambient ring")
    names = mf.f.names + extra
    return mf.phi.extend(names), mf.psi.extend(names), mf.f.extend(names), names


def maltese(mf: MatFac, u_name: str = "u", v_name: str = "v") -> MatFac:
    """Factorization of f + uv built from one of f.

    Returns ([phi, -vI; uI, psi], [psi, vI; -uI, phi]) over the ring with
    fresh variables u, v appended.
    """
    phi, psi, f, names = _extend_pair(mf, (u_name, v_name))
    n = len(names)
    size = mf.size
    u = SparsePoly.monomial((0,) * (n - 2) + (1, 0), f.p, n, 1, names)
    v = SparsePoly.monomial((0,) * (n - 2) + (0, 1), f.p, n, 1, names)
    uI = PolyMatrix.scalar(size, u)
    vI = PolyMatrix.scalar(size, v)
    big_phi = PolyMatrix.block([[phi, -vI], [uI, psi]])
    big_psi = PolyMatrix.block([[psi, vI], [-uI, phi]])
    return MatFac(big_phi, big_psi, f + u * v)


def sharp(mf: MatFac, z_name: str = "z") -> MatFac:
    """Factorization of f + z^2 built from one of f; requires p odd."""
    if mf.f.p == 2:
        raise ValueError("the f+z^2 construction requires p != 2")
    phi, psi, f, names = _extend_pair(mf, (z_name,))
    n = len(names)
    size = mf.size
    z = SparsePoly.monomial((0,) * (n - 1) + (1,), f.p, n, 1, names)
    zI = PolyMatrix.scalar(size, z)
    big_phi = PolyMatrix.block([[phi, -zI], [zI, psi]])
    big_psi = PolyMatrix.block([[psi, zI], [-zI, phi]])
    return MatFac(big_phi, big_psi, f + z * z)


def echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """Row echelon form over F_p of a matrix given as sparse rows {col: value}.

    Returns {pivot column: row}: each row is monic at its pivot, the smallest
    column it holds, and no two rows share a pivot.  The rows span the same
    space as the input, so their number is its rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: (v * inv) % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in piv.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return pivots


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


# -- companion-block reductions ------------------------------------------------
#
# The shapes below are square matrices over a polynomial ring built from a
# single element b (plus designated corner entries).  Each is reduced, by an
# explicit recorded sequence of elementary row/column operations, to a sparse
# form whose nonzero entries are signed powers of b and the corner entries.

CHAIN = "chain"
EVEN = "even"
ODD = "odd"
SPLIT = "split"
UV = "uv"

SHAPES = (CHAIN, EVEN, ODD, SPLIT, UV)


@dataclass
class CompanionReduction:
    """Result of a companion reduction: left * matrix * right == reduced."""

    matrix: PolyMatrix
    left: PolyMatrix
    right: PolyMatrix
    reduced: PolyMatrix
    row_ops: list = field(default_factory=list)
    col_ops: list = field(default_factory=list)

    def verify(self) -> bool:
        return self.left * self.matrix * self.right == self.reduced

    def elementary_factors(self):
        """(left_factors, right_factors): products recover left and right.

        Every factor is an elementary matrix: a transvection I + c*E_ij, or a
        dilation by the unit -1 (swaps are expanded into three transvections
        and one dilation).
        """
        size = self.matrix.rows
        ring = (self.matrix.p, self.matrix.n, self.matrix.names)
        left = []
        for op in self.row_ops:
            left = [_op_matrix(o, size, ring) for o in _expand_op(op)] + left
        right = [
            _op_matrix(o, size, ring)
            for op in self.col_ops
            for o in _expand_op(op)
        ]
        return left, right


def _expand_op(op):
    """Factors whose matrix product, in list order, equals the op's matrix."""
    kind = op[0]
    if kind in ("add", "scale"):
        return [op]
    # permutation matrix P_ij = E_ij(1) * E_ji(-1) * E_ij(1) * S_i(-1)
    _, i, j = op
    return [("add", i, j, 1), ("add", j, i, -1), ("add", i, j, 1), ("scale", i, -1)]


def _op_matrix(op, size, ring):
    p, n, names = ring
    m = PolyMatrix.identity(size, p, n, names)
    if op[0] == "add":
        _, i, j, coeff = op
        poly = coeff if isinstance(coeff, SparsePoly) else SparsePoly.constant(
            coeff, p, n, names
        )
        m.set_entry(i, j, poly)
    else:
        _, i, unit = op
        m.set_entry(i, i, SparsePoly.constant(unit, p, n, names))
    return m


class _Work:
    """Dense working matrix with recorded row/column operations."""

    def __init__(self, grid, ring):
        self.grid = grid
        self.p, self.n, self.names = ring
        self.zero = SparsePoly.zero(self.p, self.n, self.names)
        self.row_ops = []
        self.col_ops = []

    def row_add(self, i, j, poly):
        # row_i += poly * row_j
        gi, gj = self.grid[i], self.grid[j]
        for c in range(len(gi)):
            if not gj[c].is_zero():
                gi[c] = gi[c] + poly * gj[c]
        self.row_ops.append(("add", i, j, poly))

    def col_add(self, j, i, poly):
        # col_j += col_i * poly; as a right factor this is I + poly*E_ij
        for row in self.grid:
            if not row[i].is_zero():
                row[j] = row[j] + row[i] * poly
        self.col_ops.append(("add", i, j, poly))

    def permute(self, row_order, col_order):
        for seq, ops, axis in (
            (row_order, self.row_ops, "row"),
            (col_order, self.col_ops, "col"),
        ):
            perm = list(seq)
            # realize the permutation "new position k holds old index perm[k]"
            # as a sequence of transpositions applied to the working matrix
            current = list(range(len(perm)))
            for k, want in enumerate(perm):
                pos = current.index(want)
                if pos != k:
                    current[k], current[pos] = current[pos], current[k]
                    if axis == "row":
                        self.grid[k], self.grid[pos] = self.grid[pos], self.grid[k]
                    else:
                        for row in self.grid:
                            row[k], row[pos] = row[pos], row[k]
                    ops.append(("swap", k, pos))

    def left_right(self, size):
        """(left, right) with left * A * right equal to the working matrix.

        Each recorded operation is replayed on an identity matrix, rows for
        left and columns for right, so no matrix product is formed.
        """
        ring = (self.p, self.n, self.names)
        identity = PolyMatrix.identity(size, *ring).to_dense
        left, right = _Work(identity(), ring), _Work(identity(), ring)
        for op in self.row_ops:
            if op[0] == "swap":
                _, i, j = op
                left.grid[i], left.grid[j] = left.grid[j], left.grid[i]
            else:
                _, i, j, poly = op
                left.row_add(i, j, poly)
        for op in self.col_ops:
            if op[0] == "swap":
                _, i, j = op
                for row in right.grid:
                    row[i], row[j] = row[j], row[i]
            else:
                _, i, j, poly = op
                right.col_add(j, i, poly)
        return PolyMatrix.from_dense(left.grid), PolyMatrix.from_dense(right.grid)


def companion_matrix(
    shape: str,
    size: int,
    b: SparsePoly,
    corner: SparsePoly | None = None,
    corner2: SparsePoly | None = None,
    k: int | None = None,
) -> PolyMatrix:
    """Build the companion-style matrix of the given shape.

    chain: b on the diagonal, 1 on the first subdiagonal.
    even:  size 2m, b diagonal, 1 on the second subdiagonal, corner at (0, n-1).
    odd:   size 2m+1, as even plus corner at (0, n-2) and corner2 at (1, n-1).
    split: two chains of sizes k and size-k glued by corner2 (lower left) at
           (k, k-1) and corner (upper right) at (0, size-1).
    uv:    chain with corner at (0, size-1).
    """
    if shape not in SHAPES:
        raise ValueError(f"unsupported shape {shape!r}")
    if size < 2:
        raise ValueError("companion shapes need size >= 2")
    ring = (b.p, b.n, b.names)
    one = SparsePoly.one(*ring)
    m = PolyMatrix(size, size, *ring)
    if shape in (CHAIN, UV, SPLIT):
        for i in range(size):
            m.set_entry(i, i, b)
        for i in range(1, size):
            m.set_entry(i, i - 1, one)
        if shape == UV:
            if corner is None:
                raise ValueError("uv shape needs the corner entry")
            m.set_entry(0, size - 1, corner)
        if shape == SPLIT:
            if k is None or not 1 <= k <= size - 1:
                raise ValueError("split shape needs 1 <= k <= size-1")
            if corner is None or corner2 is None:
                raise ValueError("split shape needs both corner entries")
            m.set_entry(k, k - 1, corner2)
            m.set_entry(0, size - 1, corner)
        return m
    # interleaved shapes: two chains on even/odd index sublattices
    if shape == EVEN and size % 2:
        raise ValueError("even shape needs even size")
    if shape == ODD and size % 2 == 0:
        raise ValueError("odd shape needs odd size")
    for i in range(size):
        m.set_entry(i, i, b)
    for i in range(2, size):
        m.set_entry(i, i - 2, one)
    if corner is None:
        raise ValueError(f"{shape} shape needs a corner entry")
    if shape == EVEN:
        m.set_entry(0, size - 1, corner)
    else:
        if corner2 is None:
            raise ValueError("odd shape needs both corner entries")
        m.set_entry(0, size - 2, corner)
        m.set_entry(1, size - 1, corner2)
    return m


def _reduce_chain(work: _Work, idx: list[int], b: SparsePoly) -> None:
    """Clear a chain supported on the index sublattice ``idx``.

    Afterwards the sublattice carries subdiagonal units and the single entry
    (-1)^(m-1) * b^m at (idx[0], idx[-1]) for a chain of length m.
    """
    for step in range(len(idx) - 1):
        i0 = idx[0]
        jcur, jnext = idx[step], idx[step + 1]
        c = work.grid[i0][jcur]
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

    Returns (left, right, reduced) with left * A * right == reduced, where A
    is the matrix built by :func:`companion_matrix` and left, right are
    products of the recorded elementary operations.  Nothing is checked
    here; ``CompanionReduction.verify`` multiplies the three out.
    """
    a = companion_matrix(shape, size, b, corner=corner, corner2=corner2, k=k)
    ring = (b.p, b.n, b.names)
    work = _Work(a.to_dense(), ring)
    if shape == CHAIN:
        _reduce_chain(work, list(range(size)), b)
    elif shape == EVEN:
        if size < 4:
            raise ValueError("even shape needs size >= 4")
        _reduce_chain(work, list(range(0, size, 2)), b)
        _reduce_chain(work, list(range(1, size, 2)), b)
    elif shape == ODD:
        if size < 5:
            raise ValueError("odd shape needs size >= 5")
        _reduce_chain(work, list(range(0, size, 2)), b)
        _reduce_chain(work, list(range(1, size, 2)), b)
    elif shape == SPLIT:
        if size == 2:
            pass  # already in target form
        else:
            _reduce_chain(work, list(range(k)), b)
            _reduce_chain(work, list(range(k, size)), b)
            row_order = (
                list(range(1, k)) + list(range(k + 1, size)) + [0, k]
            )
            col_order = (
                list(range(k - 1)) + list(range(k, size - 1)) + [k - 1, size - 1]
            )
            work.permute(row_order, col_order)
    elif shape == UV:
        if size > 2:
            _reduce_chain(work, list(range(size - 1)), b)
            row_order = list(range(1, size - 1)) + [0, size - 1]
            col_order = list(range(size))
            work.permute(row_order, col_order)
    left, right = work.left_right(size)
    reduced = PolyMatrix.from_dense(work.grid)
    return CompanionReduction(
        matrix=a,
        left=left,
        right=right,
        reduced=reduced,
        row_ops=work.row_ops,
        col_ops=work.col_ops,
    )
