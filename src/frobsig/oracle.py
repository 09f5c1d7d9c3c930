"""Independent brute-force cross-checks for the main computation paths.

Each function here re-derives a result that the main modules compute by a
different route: the pushforward coordinates term by term, the W_j by
summing over subsets, a Fedder-style ideal-membership test by binomial
expansion, and a univariate Smith normal form by dense polynomial row
reduction.  Logic is deliberately duplicated rather than shared so
agreement between paths is meaningful.
"""

from __future__ import annotations

import itertools
from math import comb, prod

from .frobenius import FrobBasis, PolyMatrix
from .ring import SparsePoly


def decompose_by_exponents(g: SparsePoly, basis: FrobBasis) -> dict[int, SparsePoly]:
    """Pushforward coordinates of g, re-derived per monomial.

    For each term c * x^a, split every exponent as a_i = q * h_i + r_i with
    0 <= r_i < q; the term contributes c * x^h to the coordinate at the
    basis monomial x^r (the q-th power of the coefficient is the
    coefficient itself over the prime field).
    """
    q = basis.q
    coords: dict[int, SparsePoly] = {}
    for exps, coeff in g.terms.items():
        high = tuple(a // q for a in exps)
        low = tuple(a % q for a in exps)
        idx = basis.index_of(low)
        piece = SparsePoly.monomial(high, g.p, g.n, coeff, basis.names)
        if idx in coords:
            coords[idx] = coords[idx] + piece
        else:
            coords[idx] = piece
    return {i: poly for i, poly in coords.items() if not poly.is_zero()}


def w_values_by_subsets(dvec) -> list[int]:
    """W_0..W_n summed over subsets, 2^n terms in all.

    W_s sums, over s-element subsets J of the variables, the product of
    (d - d_j) for j in J times d_j for j outside J, with d = max d_j.
    """
    dvec = tuple(dvec)
    n = len(dvec)
    d = max(dvec)
    return [
        sum(
            prod(d - dvec[j] if j in subset else dvec[j] for j in range(n))
            for subset in itertools.combinations(range(n), s)
        )
        for s in range(n + 1)
    ]


def fedder_membership(dvec, p: int, e: int) -> bool:
    """Whether (x^dvec + z^2)^{q-1} lies in (x_1^q, ..., x_n^q, z^q).

    Expands binomially: the j-th term is C(q-1, j) x^{dvec*j} z^{2(q-1-j)};
    membership holds iff every term with nonzero coefficient mod p has some
    variable exponent >= q.
    """
    dvec = tuple(dvec)
    if not dvec or any(d < 1 for d in dvec):
        raise ValueError("dvec must be non-empty with all exponents >= 1")
    if p == 2:
        raise ValueError("the f+z^2 membership test requires p odd")
    q = p ** e
    for j in range(q):
        if comb(q - 1, j) % p == 0:
            continue
        if 2 * (q - 1 - j) >= q:
            continue
        if all(d * j < q for d in dvec):
            return False
    return True


# -- univariate Smith normal form ---------------------------------------------
#
# Polynomials in one variable over F_p as dense coefficient lists, lowest
# degree first, with no trailing zeros.


def _upoly(poly: SparsePoly) -> list[int]:
    if poly.n != 1:
        raise ValueError("univariate oracle requires n = 1")
    out = [0] * (poly.total_degree() + 1) if poly.terms else []
    for (a,), c in poly.terms.items():
        out[a] = c
    return out


def _utrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _uadd(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _utrim(out)


def _uscale(a, c, p):
    c %= p
    return _utrim([(v * c) % p for v in a])


def _umul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _utrim(out)


def _udivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = (a[-1] * inv) % p
        shift = len(a) - len(b)
        quo[shift] = c
        for i, v in enumerate(b):
            a[shift + i] = (a[shift + i] - c * v) % p
        _utrim(a)
        if not a:
            break
    return quo, a


def invariant_factors_univariate(a: PolyMatrix) -> list[SparsePoly]:
    """Invariant factors of a square univariate polynomial matrix.

    Diagonalizes by exact row/column reduction over F_p[x] and returns the
    monic diagonal entries ordered by divisibility (units first as 1);
    zero factors, if any, come last.
    """
    if a.rows != a.cols:
        raise ValueError("expected a square matrix")
    p = a.p
    size = a.rows
    grid = [[_upoly(a.entry(i, j)) for j in range(size)] for i in range(size)]

    def deg(u):
        return len(u) - 1 if u else -1

    factors = []
    for top in range(size):
        while True:
            pivot = None
            best = None
            for i in range(top, size):
                for j in range(top, size):
                    if grid[i][j] and (best is None or deg(grid[i][j]) < best):
                        best = deg(grid[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            grid[top], grid[pi] = grid[pi], grid[top]
            for row in grid:
                row[top], row[pj] = row[pj], row[top]
            done = True
            for i in range(top + 1, size):
                if grid[i][top]:
                    quo, _ = _udivmod(grid[i][top], grid[top][top], p)
                    for j in range(top, size):
                        grid[i][j] = _uadd(
                            grid[i][j], _uscale(_umul(quo, grid[top][j], p), -1, p), p
                        )
                    done = False
            for j in range(top + 1, size):
                if grid[top][j]:
                    quo, _ = _udivmod(grid[top][j], grid[top][top], p)
                    for i in range(top, size):
                        grid[i][j] = _uadd(
                            grid[i][j], _uscale(_umul(quo, grid[i][top], p), -1, p), p
                        )
                    done = False
            if done:
                break
        piv = grid[top][top]
        if piv:
            piv = _uscale(piv, pow(piv[-1], -1, p), p)
        factors.append(piv)
    # enforce the divisibility chain f_1 | f_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            fa, fb = factors[i], factors[i + 1]
            if not fa:
                factors[i], factors[i + 1] = fb, fa
                changed = bool(fb)
                continue
            if fb and _udivmod(fb, fa, p)[1]:
                g = _ugcd(fa, fb, p)
                lcm, _ = _udivmod(_umul(fa, fb, p), g, p)
                factors[i], factors[i + 1] = g, lcm
                changed = True
    return [
        SparsePoly(p, 1, {(d,): c for d, c in enumerate(u) if c}, a.names)
        for u in factors
    ]


def _ugcd(a, b, p):
    while b:
        _, r = _udivmod(a, b, p)
        a, b = b, r
    return _uscale(a, pow(a[-1], -1, p), p) if a else []
