"""Frobenius pushforward bases and matrices of relations.

For S = F_p[x_1..x_n] and q = p^e, the pushforward F_*^e(S) is free over S
with monomial basis {x^a : 0 <= a_i < q}.  Multiplication by f on that basis
is represented by a sparse square matrix whose column j is the coordinate
vector of x^j * f.  This module builds that basis, the matrix, its powers,
and the block assembly of the matrix over a ring with one added variable.
"""

from __future__ import annotations

import csv
import io
import json

from .ring import SparsePoly, check_prime, default_names


class FrobBasis:
    """Ordered monomial basis of F_*^e(S), mixed radix with x_1 least significant.

    index(a_1, ..., a_n) = sum_i a_i * q^(i-1), a bijection onto [0, q^n).
    """

    __slots__ = ("p", "e", "n", "names", "q", "size", "_radix", "_tuples")

    def __init__(self, p: int, e: int, n: int, names=None):
        check_prime(p)
        if e < 1:
            raise ValueError("e must be >= 1")
        if n < 1:
            raise ValueError("variable count must be >= 1")
        self.p = p
        self.e = e
        self.n = n
        self.names = tuple(names) if names is not None else default_names(n)
        self.q = p ** e
        self.size = self.q ** n
        self._radix = tuple(self.q ** i for i in range(n))
        self._tuples = None

    def index_of(self, exps) -> int:
        if len(exps) != self.n or any(not 0 <= a < self.q for a in exps):
            raise ValueError(f"{tuple(exps)} is not a basis exponent tuple")
        return sum(a * r for a, r in zip(exps, self._radix))

    def tuple_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"basis index {index} out of range")
        out = []
        for _ in range(self.n):
            index, a = divmod(index, self.q)
            out.append(a)
        return tuple(out)

    @property
    def tuples(self) -> list[tuple[int, ...]]:
        if self._tuples is None:
            self._tuples = [self.tuple_of(i) for i in range(self.size)]
        return self._tuples

    def monomial(self, exps, coeff=1) -> SparsePoly:
        return SparsePoly.monomial(exps, self.p, self.n, coeff, self.names)

    def __repr__(self) -> str:
        return f"FrobBasis(p={self.p}, e={self.e}, n={self.n})"


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
        self.names = tuple(names) if names is not None else default_names(n)
        self.data = data if data is not None else [dict() for _ in range(cols)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, size, p, n, names=None) -> "PolyMatrix":
        names = tuple(names) if names is not None else default_names(n)
        one = SparsePoly.one(p, n, names)
        return cls(size, size, p, n, names, [{i: one} for i in range(size)])

    @classmethod
    def scalar(cls, size, poly: SparsePoly) -> "PolyMatrix":
        """poly * identity."""
        m = cls(size, size, poly.p, poly.n, poly.names)
        if not poly.is_zero():
            m.data = [{i: poly} for i in range(size)]
        return m

    @classmethod
    def from_entries(cls, rows, cols, entries, p, n, names=None) -> "PolyMatrix":
        """Build from an iterable of (row, col, SparsePoly)."""
        m = cls(rows, cols, p, n, names)
        for i, j, poly in entries:
            m.set_entry(i, j, poly)
        return m

    @classmethod
    def from_dense(cls, grid) -> "PolyMatrix":
        """Build from a non-empty nested list of SparsePoly."""
        rows = len(grid)
        cols = len(grid[0])
        sample = grid[0][0]
        m = cls(rows, cols, sample.p, sample.n, sample.names)
        for i, row in enumerate(grid):
            for j, poly in enumerate(row):
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

    def _check_same_ring(self, other: "PolyMatrix") -> None:
        if self.p != other.p or self.n != other.n or self.names != other.names:
            raise ValueError("mismatched coefficient rings")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_ring(other)
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

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_ring(other)
        if self.cols != other.rows:
            raise ValueError("size mismatch in matrix multiplication")
        data = []
        for bcol in other.data:
            acc: dict[int, SparsePoly] = {}
            for i, poly in bcol.items():
                for r, apoly in self.data[i].items():
                    prod = apoly * poly
                    cur = acc.get(r)
                    acc[r] = prod if cur is None else cur + prod
            data.append({r: v for r, v in acc.items() if not v.is_zero()})
        return PolyMatrix(self.rows, other.cols, self.p, self.n, self.names, data)

    def scale(self, poly: SparsePoly) -> "PolyMatrix":
        if poly.is_zero():
            return PolyMatrix(self.rows, self.cols, self.p, self.n, self.names)
        data = []
        for col in self.data:
            new = {}
            for i, entry in col.items():
                prod = entry * poly
                if not prod.is_zero():
                    new[i] = prod
            data.append(new)
        return PolyMatrix(self.rows, self.cols, self.p, self.n, self.names, data)

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
            and self.p == other.p
            and self.n == other.n
            and self.data == other.data
        )

    def __hash__(self):
        return NotImplemented

    # -- ring extension and evaluation ----------------------------------------

    def extend(self, names) -> "PolyMatrix":
        names = tuple(names)
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
        """Assemble from a 2D grid of equally-sized PolyMatrix blocks or None."""
        sample = next(b for row in grid for b in row if b is not None)
        br, bc = sample.rows, sample.cols
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

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, str(poly)] for i, j, poly in self.sorted_entries()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row", "col", "entry"])
        for i, j, poly in self.sorted_entries():
            writer.writerow([i, j, str(poly)])
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
    if g.p != basis.p or g.n != basis.n:
        raise ValueError("polynomial not in the ambient ring of the basis")
    q = basis.q
    radix = basis._radix
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
            g.p, g.n, basis.names, {e: c for e, c in terms.items() if c}
        )
        if not poly.is_zero():
            result[idx] = poly
    return result


def matrix_of_relations(f: SparsePoly, basis: FrobBasis) -> PolyMatrix:
    """The matrix of multiplication by f on F_*^e(S) in the monomial basis.

    Column j is the decomposition of x^j * f; column sparsity is bounded by
    the number of terms of f.
    """
    if f.p != basis.p or f.n != basis.n:
        raise ValueError("polynomial not in the ambient ring of the basis")
    q = basis.q
    n = basis.n
    radix = basis._radix
    size = basis.size
    data: list[dict[int, SparsePoly]] = [dict() for _ in range(size)]
    mono_cache: dict[tuple[int, ...], SparsePoly] = {}
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
        for j in range(size):
            beta = tuples[j]
            row = 0
            quo = []
            for i in range(n):
                bi = beta[i]
                row += row_tab[i][bi]
                quo.append(quo_tab[i][bi])
            key = tuple(quo)
            mono = mono_cache.get(key)
            if mono is None:
                mono = SparsePoly._raw(f.p, n, basis.names, {key: 1})
                mono_cache[key] = mono
            entry = mono if coeff == 1 else mono.scale(coeff)
            col = data[j]
            cur = col.get(row)
            if cur is None:
                col[row] = entry
            else:
                s = cur + entry
                if s.is_zero():
                    del col[row]
                else:
                    col[row] = s
    return PolyMatrix(size, size, f.p, n, basis.names, data)


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


def block_assemble(
    coeffs: list[SparsePoly], basis: FrobBasis, var_name: str | None = None
) -> PolyMatrix:
    """Matrix of relations of g = sum_s coeffs[s] * t^s over S[t], t a new variable.

    The result is the q x q block matrix with A_s = M(coeffs[s], e) on block
    subdiagonal s and t * A_s wrapped into the upper-right corner, equal to
    the directly constructed matrix of relations of g in the larger ring.
    """
    if not coeffs:
        raise ValueError("need at least one coefficient polynomial")
    d = len(coeffs) - 1
    q = basis.q
    if d >= q:
        raise ValueError(f"degree {d} in the new variable must be < q = {q}")
    for g in coeffs:
        if g.p != basis.p or g.n != basis.n:
            raise ValueError("coefficient not in the ambient ring of the basis")
    name = var_name if var_name is not None else f"x{basis.n + 1}"
    if name in basis.names:
        raise ValueError(f"variable name {name!r} already in the ring")
    names = basis.names + (name,)
    n_big = basis.n + 1
    r_e = basis.size
    t_poly = SparsePoly.monomial(
        (0,) * basis.n + (1,), basis.p, n_big, 1, names
    )
    blocks = [matrix_of_relations(g, basis).extend(names) for g in coeffs]
    out = PolyMatrix(r_e * q, r_e * q, basis.p, n_big, names)
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
