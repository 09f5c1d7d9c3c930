"""Matrices of relations on Frobenius pushforward bases.

For S = F_p[x_1..x_n] and q = p^e, the pushforward F_*^e(S) is free over S
with monomial basis {x^a : 0 <= a_i < q}.  Multiplication by f on that basis
is represented by a sparse square matrix whose column j is the coordinate
vector of x^j * f.  This module builds the matrix, its powers, and the
block assembly of the matrix over a ring with one added variable, each in
the ring of the polynomials it is built from.  The basis, ``FrobBasis``, is
(p, e, n) alone; it lives in ``ring``, so the routes that need only the
basis (the free ranks) never load this module; it is re-exported here.
"""

from __future__ import annotations

import io
import json

from .ring import FrobBasis, SparsePoly, ring_names, tick
from .ring import check_same_ring, extended_names, same_ring


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
        names = ring_names(n, names)
        one = SparsePoly.one(p, n, names)
        return cls(size, size, p, n, names, [{i: one} for i in range(size)])

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

    @classmethod
    def from_dense(cls, grid) -> "PolyMatrix":
        """Build from a non-empty nested list of SparsePoly over one ring."""
        if not grid or not grid[0]:
            raise ValueError("a dense matrix needs at least one entry")
        rows = len(grid)
        cols = len(grid[0])
        sample = grid[0][0]
        m = cls(rows, cols, sample.p, sample.n, sample.names)
        for i, row in enumerate(grid):
            if len(row) != cols:
                raise ValueError("dense grid rows of unequal length")
            for j, poly in enumerate(row):
                check_same_ring(sample, poly)
                if not poly.is_zero():
                    m.data[j][i] = poly
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

    def to_dense(self) -> list[list[SparsePoly]]:
        zero = SparsePoly.zero(self.p, self.n, self.names)
        grid = [[zero] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.data):
            for i, poly in col.items():
                grid[i][j] = poly
        return grid

    def entry_count(self) -> int:
        return sum(len(col) for col in self.data)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        check_same_ring(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("size mismatch in matrix addition")
        data = []
        for ca, cb in zip(self.data, other.data):
            col = dict(ca)
            for i, poly in cb.items():
                s = col.get(i)
                s = poly if s is None else s + poly
                if s.is_zero():
                    col.pop(i, None)
                else:
                    col[i] = s
            data.append(col)
        return PolyMatrix(self.rows, self.cols, self.p, self.n, self.names, data)

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
            acc: dict[int, int] = {}
            get = acc.get
            products = 0
            for i, poly in bcol.items():
                a_terms = a_cols[i]
                products += len(a_terms) * len(poly.terms)
                for e, cb in poly.terms.items():
                    pb = pack[e]
                    for ka, ca in a_terms:
                        k = ka + pb
                        acc[k] = get(k, 0) + ca * cb
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
            # the column's term products and the terms they sum to, and its
            # own 10 us however few they are
            tick(24 + products + len(acc))
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

    def add_block(self, row_off, col_off, block: "PolyMatrix", factor=None) -> None:
        """In-place: add ``factor * block`` at offset (row_off, col_off)."""
        check_same_ring(self, block)
        for j, col in enumerate(block.data):
            target = self.data[col_off + j]
            for i, poly in col.items():
                if factor is not None:
                    poly = poly * factor
                r = row_off + i
                cur = target.get(r)
                s = poly if cur is None else cur + poly
                if s.is_zero():
                    target.pop(r, None)
                else:
                    target[r] = s

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

    def sorted_entries(self) -> list[tuple[int, int, SparsePoly]]:
        items = []
        for j, col in enumerate(self.data):
            for i, poly in col.items():
                items.append((i, j, poly))
        items.sort(key=lambda t: (t[0], t[1]))
        return items

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
        for i, j, poly in self.sorted_entries():
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
    power fixes coefficients, so each term splits by exponent divmod q.
    """
    basis.check(g)
    q = basis.q
    radix = basis.radix
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coeff in g.terms.items():
        idx = 0
        quo = []
        for a, r in zip(exps, radix):
            c, rem = divmod(a, q)
            idx += rem * r
            quo.append(c)
        bucket = out.setdefault(idx, {})
        key = tuple(quo)
        bucket[key] = (bucket.get(key, 0) + coeff) % g.p
    result = {}
    for idx, terms in out.items():
        poly = SparsePoly._raw(
            g.p, g.n, g.names, {e: c for e, c in terms.items() if c}
        )
        if not poly.is_zero():
            result[idx] = poly
    return result


def matrix_of_relations(f: SparsePoly, basis: FrobBasis) -> PolyMatrix:
    """The matrix of multiplication by f on F_*^e(S) in the monomial basis.

    Column j is the decomposition of x^j * f; column sparsity is bounded by
    the number of terms of f.  The matrix is over f's ring.
    """
    basis.check(f)
    q = basis.q
    n = basis.n
    size = basis.size
    # the q^n columns and their tuples, before they are formed: about 1.2 us each
    tick(4 * size)
    radix = basis.radix
    data: list[dict[int, SparsePoly]] = [dict() for _ in range(size)]
    # one entry object per distinct (quotient exponents, coefficient)
    entries: dict[tuple[tuple[int, ...], int], SparsePoly] = {}
    tuples = basis.tuples
    for gamma, coeff in f.terms.items():
        # per-variable tables over basis exponent values
        row_tab = []
        quo_tab = []
        for i in range(n):
            rt = []
            qt = []
            gi = gamma[i]
            for b in range(q):
                c, rem = divmod(b + gi, q)
                rt.append(rem * radix[i])
                qt.append(c)
            row_tab.append(rt)
            quo_tab.append(qt)
        sums = 0
        for j in range(size):
            beta = tuples[j]
            row = 0
            quo = []
            for i in range(n):
                bi = beta[i]
                row += row_tab[i][bi]
                quo.append(quo_tab[i][bi])
            key = (tuple(quo), coeff)
            entry = entries.get(key)
            if entry is None:
                entry = SparsePoly._raw(f.p, n, f.names, {key[0]: coeff})
                entries[key] = entry
            col = data[j]
            cur = col.get(row)
            if cur is None:
                col[row] = entry
            else:
                sums += 1
                s = cur + entry
                if s.is_zero():
                    del col[row]
                else:
                    col[row] = s
        # the term's n tables of q entries, its entry in each column from n
        # lookups at about 0.6 + 0.2 n us, and 3.5 us for each sum with an
        # entry already there
        tick(n * q + size * (n + 4) // 2 + 10 * sums)
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
        if not block.data or all(not col for col in block.data):
            continue
        for m in range(q):
            k = m + s
            if k < q:
                out.add_block(k * r_e, m * r_e, block)
            else:
                out.add_block((k - q) * r_e, m * r_e, block, factor=t_poly)
    return out
