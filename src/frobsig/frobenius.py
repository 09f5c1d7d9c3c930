"""Matrices of relations on Frobenius pushforward bases.

For S = F_p[x_1..x_n] and q = p^e, the pushforward F_*^e(S) is free over S
with monomial basis {x^a : 0 <= a_i < q}.  Multiplication by f on that basis
is represented by a sparse square matrix whose column j is the coordinate
vector of x^j * f.  This module builds the matrix, its powers, and the
block assembly of the matrix over a ring with one added variable, each in
the ring of the polynomials it is built from.  The basis, ``FrobBasis``, is
(p, e, n) alone; it lives in ``ring``, so the routes that need only the
basis (the free ranks) never load this module; it is re-exported here.
Every matrix is stored as sparse columns, with no dense constructor, and
whatever edits one (``add_block``, the companion reductions of ``matfac``)
adds into those columns in place, storing no zero.
"""

from __future__ import annotations

import io
import json
from itertools import product
from operator import add

from .ring import FrobBasis, SparsePoly, ring_names, tick
from .ring import check_same_ring, extended_names, same_ring


def _add_into(col: dict[int, SparsePoly], r: int, poly: SparsePoly) -> None:
    """col[r] += poly in a sparse column, storing no zero."""
    cur = col.get(r)
    s = poly if cur is None else cur + poly
    if s.is_zero():
        col.pop(r, None)
    else:
        col[r] = s


class PolyMatrix:
    """Rectangular matrix of polynomials with sparse column-major storage.

    ``data[j]`` maps row index -> nonzero SparsePoly entry of column j.
    """

    __slots__ = ("rows", "cols", "p", "n", "names", "data")

    def __init__(self, rows, cols, p, n, names=None, data=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.p = p
        self.n = n
        self.names = ring_names(n, names)
        self.data = data if data is not None else [dict() for _ in range(cols)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, size, p, n, names=None) -> "PolyMatrix":
        return cls.scalar(size, SparsePoly.one(p, n, names))

    @classmethod
    def scalar(cls, size, poly: SparsePoly) -> "PolyMatrix":
        """poly * identity."""
        data = None if poly.is_zero() else [{i: poly} for i in range(size)]
        return cls(size, size, poly.p, poly.n, poly.names, data)

    @classmethod
    def from_entries(cls, rows, cols, entries, p, n, names=None) -> "PolyMatrix":
        """Build from an iterable of (row, col, SparsePoly)."""
        m = cls(rows, cols, p, n, names)
        for i, j, poly in entries:
            m.set_entry(i, j, poly)
        return m

    # -- element access ------------------------------------------------------

    def _check_index(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(f"entry ({i},{j}) out of range")

    def entry(self, i, j) -> SparsePoly:
        self._check_index(i, j)
        return self.data[j].get(i, SparsePoly.zero(self.p, self.n, self.names))

    def set_entry(self, i, j, poly: SparsePoly) -> None:
        self._check_index(i, j)
        check_same_ring(self, poly)
        if poly.is_zero():
            self.data[j].pop(i, None)
        else:
            self.data[j][i] = poly

    def entry_count(self) -> int:
        return sum(len(col) for col in self.data)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("size mismatch in matrix addition")
        data = [dict(col) for col in self.data]
        out = PolyMatrix(self.rows, self.cols, self.p, self.n, self.names, data)
        out.add_block(0, 0, other)
        return out

    def __neg__(self) -> "PolyMatrix":
        data = [{i: -poly for i, poly in col.items()} for col in self.data]
        return PolyMatrix(self.rows, self.cols, self.p, self.n, self.names, data)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def _exponents(self) -> set[tuple[int, ...]]:
        return {e for col in self.data for poly in col.values() for e in poly.terms}

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product, with each exponent tuple packed into one int.

        Variable v gets a bit field wide enough for the sum of the two
        factors' largest exponents in v, so adding two packed exponents
        multiplies the monomials with no carry between fields.  The row of
        an entry of self sits above all the fields, so one int keys each
        (row, exponent) of a product column; its raw coefficient sums are
        reduced mod p once each.
        """
        check_same_ring(self, other)
        if self.cols != other.rows:
            raise ValueError("size mismatch in matrix multiplication")
        a_exps, b_exps = self._exponents(), other._exponents()
        fields, offset = [], 0
        for v in range(self.n):
            top = max((e[v] for e in a_exps), default=0)
            top += max((e[v] for e in b_exps), default=0)
            width = top.bit_length()
            fields.append((offset, (1 << width) - 1))
            offset += width
        mask = (1 << offset) - 1
        pack = {
            e: sum(a << off for a, (off, _) in zip(e, fields)) for e in a_exps | b_exps
        }
        # column i of self as one list of (row << offset | exponent, coefficient)
        a_cols = [
            [((r << offset) | pack[e], c)
             for r, poly in col.items() for e, c in poly.terms.items()]
            for col in self.data
        ]
        p, n, names = self.p, self.n, self.names
        exps_of: dict[int, tuple[int, ...]] = {}
        data = []
        for bcol in other.data:
            # the column's term products, before they are formed, and its own
            # 10 us however few they are; then the terms they sum to
            tick(24 + sum(len(a_cols[i]) * len(poly.terms) for i, poly in bcol.items()))
            acc: dict[int, int] = {}
            get = acc.get
            for i, poly in bcol.items():
                a_terms = a_cols[i]
                for e, cb in poly.terms.items():
                    pb = pack[e]
                    for ka, ca in a_terms:
                        k = ka + pb
                        acc[k] = get(k, 0) + ca * cb
            tick(len(acc))
            rows: dict[int, dict[tuple[int, ...], int]] = {}
            for k, c in acc.items():
                c %= p
                if c:
                    packed = k & mask
                    exps = exps_of.get(packed)
                    if exps is None:
                        exps = tuple((packed >> off) & m for off, m in fields)
                        exps_of[packed] = exps
                    rows.setdefault(k >> offset, {})[exps] = c
            data.append({r: SparsePoly._raw(p, n, names, t) for r, t in rows.items()})
        return PolyMatrix(self.rows, other.cols, p, n, names, data)

    def matrix_pow(self, k: int) -> "PolyMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power of non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = PolyMatrix.identity(self.rows, self.p, self.n, self.names)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and same_ring(self, other)
            and self.data == other.data
        )

    # -- ring extension and evaluation ----------------------------------------

    def extend(self, names) -> "PolyMatrix":
        names = extended_names(self.names, names)
        data = [
            {i: poly.extend(names) for i, poly in col.items()} for col in self.data
        ]
        return PolyMatrix(self.rows, self.cols, self.p, len(names), names, data)

    def at_origin(self) -> list[dict[int, int]]:
        """Rows of the matrix with all variables set to 0, as sparse F_p rows."""
        rows: list[dict[int, int]] = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.data):
            for i, poly in col.items():
                c = poly.constant_term()
                if c:
                    rows[i][j] = c
        return rows

    # -- block assembly ----------------------------------------------------------

    def add_block(self, row_off, col_off, block: "PolyMatrix") -> None:
        """In-place: add ``block`` at offset (row_off, col_off), where it fits."""
        check_same_ring(self, block)
        if not (0 <= row_off <= self.rows - block.rows
                and 0 <= col_off <= self.cols - block.cols):
            raise ValueError(f"block at ({row_off},{col_off}) does not fit in "
                             f"{self.rows}x{self.cols}")
        for col, target in zip(block.data, self.data[col_off:]):
            for i, poly in col.items():
                _add_into(target, row_off + i, poly)

    @classmethod
    def block(cls, grid) -> "PolyMatrix":
        """Assemble from a 2D grid of equally-sized PolyMatrix blocks or None.

        The grid's rows are of one length, and its blocks of one shape over
        one ring, which the result takes.
        """
        blocks = [b for row in grid for b in row if b is not None]
        if not blocks:
            raise ValueError("a block grid needs at least one block")
        sample = blocks[0]
        br, bc = sample.rows, sample.cols
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("block grid rows of unequal length")
        for b in blocks:
            check_same_ring(sample, b)
            if (b.rows, b.cols) != (br, bc):
                raise ValueError(
                    f"blocks of unequal shape: {br}x{bc} and {b.rows}x{b.cols}"
                )
        out = cls(
            br * len(grid), bc * len(grid[0]), sample.p, sample.n, sample.names
        )
        for bi, row in enumerate(grid):
            for bj, blockmat in enumerate(row):
                if blockmat is not None:
                    out.add_block(bi * br, bj * bc, blockmat)
        return out

    # -- serialization ---------------------------------------------------------

    def _text_entries(self) -> list[list]:
        """Sorted [row, col, str(entry)], formatting each entry object once.

        A matrix of relations shares one entry object among many cells.
        """
        # the characters printed: the JSON around the entries, and each entry's
        # [row, col, "..."], at least width + 1 of them counted before the sort
        digits = len(str(max(self.rows, self.cols)))
        width = 2 * digits + len('[, , ""], ')
        head = width + len('{"rows": , "cols": , "entries": []}\n')
        tick(head + self.entry_count() * (width + 1))
        text: dict[int, str] = {}
        out = []
        cells = [(i, j, poly)
                 for j, col in enumerate(self.data) for i, poly in col.items()]
        cells.sort(key=lambda t: (t[0], t[1]))
        for i, j, poly in cells:
            s = text.get(id(poly))
            if s is None:
                s = text[id(poly)] = str(poly)
            tick(len(s) - 1)
            out.append([i, j, s])
        return out

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self._text_entries(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        import csv  # only the CSV format loads it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row", "col", "entry"])
        writer.writerows(self._text_entries())
        return buf.getvalue()

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over F_{self.p}, n={self.n})"


# -- Frobenius decomposition and matrices of relations -------------------------


def frobenius_decompose(g: SparsePoly, basis: FrobBasis) -> dict[int, SparsePoly]:
    """Coordinates of g in the pushforward basis.

    Returns the unique {index -> g_i} with g = sum_i g_i^q * x^i, where x^i
    runs over basis monomials; omitted indices are zero.  Over F_p the q-th
    power fixes coefficients, so each term splits by exponent divmod q; no
    two terms share both remainders and quotients, so nothing cancels.
    """
    basis.check(g)
    q = basis.q
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coeff in g.terms.items():
        idx = 0
        quo = []
        for a, r in zip(exps, basis.radix):
            c, rem = divmod(a, q)
            idx += rem * r
            quo.append(c)
        out.setdefault(idx, {})[tuple(quo)] = coeff
    return {idx: SparsePoly._raw(g.p, g.n, g.names, terms) for idx, terms in out.items()}


def matrix_of_relations(f: SparsePoly, basis: FrobBasis) -> PolyMatrix:
    """The matrix of multiplication by f on F_*^e(S) in the monomial basis.

    Column b is the decomposition of x^b * f.  With f = sum_r g_r^q x^r from
    ``frobenius_decompose``, x^b * f = sum_r (g_r x^c)^q x^((b + r) mod q),
    with carry c_i = (b_i + r_i) div q in {0, 1}: 0 where r_i = 0, and both
    values (at b_i = 0 and at b_i = q - 1) where r_i > 0.  For one b,
    distinct r give distinct rows, so every cell is written once, and column
    sparsity is bounded by the number of remainder classes r.  It is over
    f's ring.
    """
    coords = frobenius_decompose(f, basis)
    q, n, size = basis.q, basis.n, basis.size
    # the q^n columns, before they are formed: about 1.2 us each
    tick(4 * size)
    data: list[dict[int, SparsePoly]] = [dict() for _ in range(size)]
    for idx, g in coords.items():
        r = basis.tuple_of(idx)
        carries = list(product(*((0, 1) if ri else (0,) for ri in r)))
        # all of the class, before any of it is built: its n tables of q
        # entries, and its cell in each column at about 0.6 + 0.2 n us; n + 2,
        # as for a term product, for each further term, as it is split off
        # and in the entry g_r x^c of each carry c
        tick(n * q + size * (n + 4) // 2 + (len(g.terms) - 1) * (n + 2) * len(carries))
        entries = {carry: SparsePoly._raw(f.p, n, f.names, {
            tuple(map(add, e, carry)): coeff for e, coeff in g.terms.items()
        }) if any(carry) else g for carry in carries}
        # (row, carry) of x^b * x^r for every column b: the Kronecker product
        # of the tables divmod(b_i + r_i, q), b_i < q, built from x_n down so
        # that x_1 varies fastest, as in the basis
        cells = [(0, ())]
        for ri, radix in zip(reversed(r), reversed(basis.radix)):
            table = [divmod(b + ri, q) for b in range(q)]
            cells = [(row + rem * radix, (c,) + carry)
                     for row, carry in cells for c, rem in table]
        for col, (row, carry) in zip(data, cells):
            col[row] = entries[carry]
    return PolyMatrix(size, size, f.p, n, f.names, data)


def matrix_power(f: SparsePoly, k: int, basis: FrobBasis) -> PolyMatrix:
    """M(f^k, e), built directly as the matrix of relations of f^k.

    Powering M(f, e) by repeated squaring (``PolyMatrix.matrix_pow``) gives
    the same matrix, since multiplication by f^k is the k-fold composite of
    multiplication by f; it is slower even where f^k has more terms than
    the basis has elements, so only the tests use it, as the reference.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return matrix_of_relations(f ** k, basis)


def block_assemble(coeffs: list[SparsePoly], basis: FrobBasis) -> PolyMatrix:
    """Matrix of relations of g = sum_s coeffs[s] * t^s over S[t], t = x_{n+1}.

    The result is the q x q block matrix with A_s = M(coeffs[s], e) on block
    subdiagonal s and t * A_s wrapped into the upper-right corner, equal to
    the directly constructed matrix of relations of g over the coefficients'
    one ring extended by t.
    """
    if not coeffs:
        raise ValueError("need at least one coefficient polynomial")
    d = len(coeffs) - 1
    q = basis.q
    if d >= q:
        raise ValueError(f"degree {d} in the new variable must be < q = {q}")
    for g in coeffs:
        check_same_ring(coeffs[0], g)
    names = coeffs[0].names + (f"x{basis.n + 1}",)
    blocks = [matrix_of_relations(g, basis).extend(names) for g in coeffs]
    r_e = basis.size
    t_poly = SparsePoly.variable(len(names), basis.p, len(names), names)
    out = PolyMatrix(r_e * q, r_e * q, basis.p, len(names), names)
    for s, block in enumerate(blocks):
        if not any(block.data):
            continue
        for m in range(q - s):
            out.add_block((m + s) * r_e, m * r_e, block)
        if s:
            wrapped = PolyMatrix.scalar(r_e, t_poly) * block
            for m in range(q - s, q):
                out.add_block((m + s - q) * r_e, m * r_e, wrapped)
    return out
