import json
import random
import time

import pytest

from frobsig import ring
from frobsig.frobenius import (
    FrobBasis,
    PolyMatrix,
    block_assemble,
    frobenius_decompose,
    matrix_of_relations,
    matrix_power,
)
from frobsig.oracle import decompose_by_exponents
from frobsig.ring import SparsePoly, default_names, parse_poly

from test_ring import rand_poly

# M(x^2+xy, e=1) over F_3 in the basis {1, x, x^2, y, yx, yx^2, y^2, y^2x, y^2x^2},
# frozen from the worked example; entries as (row, col, polynomial text)
NINE_BY_NINE = [
    (0, 1, "x1"),
    (0, 8, "x1*x2"),
    (1, 2, "x1"),
    (1, 6, "x2"),
    (2, 0, "1"),
    (2, 7, "x2"),
    (3, 2, "x1"),
    (3, 4, "x1"),
    (4, 0, "1"),
    (4, 5, "x1"),
    (5, 1, "1"),
    (5, 3, "1"),
    (6, 5, "x1"),
    (6, 7, "x1"),
    (7, 3, "1"),
    (7, 8, "x1"),
    (8, 4, "1"),
    (8, 6, "1"),
]


def expected_nine_by_nine():
    entries = [(i, j, parse_poly(s, 3, 2)) for i, j, s in NINE_BY_NINE]
    return PolyMatrix.from_entries(9, 9, entries, 3, 2)


def test_basis_indexing():
    b = FrobBasis(3, 1, 2)
    assert b.size == 9
    # x1 least significant: index(a1, a2) = a1 + 3*a2
    assert b.index_of((2, 0)) == 2
    assert b.index_of((0, 1)) == 3
    assert b.tuple_of(3) == (0, 1)
    assert all(b.index_of(b.tuple_of(i)) == i for i in range(9))
    with pytest.raises(ValueError):
        b.index_of((3, 0))
    with pytest.raises(ValueError):
        b.tuple_of(9)


def test_decompose_worked_example():
    # y^2x * (x^2 + xy) = y^2x^3 + x^2y^3 -> x at y^2, y at x^2
    b = FrobBasis(3, 1, 2)
    g = parse_poly("x1^3*x2^2 + x1^2*x2^3", 3, 2)
    coords = frobenius_decompose(g, b)
    assert coords == {
        b.index_of((0, 2)): parse_poly("x1", 3, 2),
        b.index_of((2, 0)): parse_poly("x2", 3, 2),
    }


def test_decompose_pure_qth_power():
    b = FrobBasis(3, 1, 2)
    g = parse_poly("x1^3 * x1^3*x2^3", 3, 2)  # (x1^2*x2)^3
    assert frobenius_decompose(g, b) == {0: parse_poly("x1^2*x2", 3, 2)}


def test_decompose_univariate_split():
    b = FrobBasis(3, 1, 1)
    coords = frobenius_decompose(parse_poly("x1^4", 3, 1), b)
    assert coords == {1: parse_poly("x1", 3, 1)}


def test_decompose_reconstruction_randomized():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([3, 5])
        n = rng.randint(1, 3)
        e = rng.randint(1, 2)
        b = FrobBasis(p, e, n)
        g = rand_poly(rng, p, n, max_deg=2 * b.q)
        total = SparsePoly.zero(p, n)
        for idx, gi in frobenius_decompose(g, b).items():
            total = total + gi ** b.q * SparsePoly.monomial(b.tuple_of(idx), p, n)
        assert total == g


def test_matrix_worked_example():
    b = FrobBasis(3, 1, 2)
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    assert matrix_of_relations(f, b) == expected_nine_by_nine()


def test_columns_match_the_oracle_decomposition():
    # column j of M(f, e) is x^j * f decomposed term by term by the oracle,
    # for exponents past q and for terms congruent mod q, which share a
    # remainder class and so a cell
    rng = random.Random(27)
    for p in (2, 3, 5):
        for e in (1, 2):
            for n in (1, 2, 3):
                b = FrobBasis(p, e, n)
                if b.size > 729:
                    continue
                for _ in range(3):
                    f = rand_poly(rng, p, n, max_deg=2 * b.q)
                    terms = dict(f.terms)
                    for exps in f.terms:
                        shifted = tuple(a + b.q * rng.randint(0, 2) for a in exps)
                        terms.setdefault(shifted, rng.randint(1, p - 1))
                    f = SparsePoly(p, n, terms)
                    m = matrix_of_relations(f, b)
                    for j in range(b.size):
                        xj = SparsePoly.monomial(b.tuple_of(j), p, n)
                        assert m.data[j] == decompose_by_exponents(xj * f, b), (f, j)
                    coords = frobenius_decompose(f, b)
                    assert coords == m.data[0]
                    # one cell per remainder class in every column
                    assert {len(col) for col in m.data} == {len(coords)}, f


def test_matrix_of_one_is_identity():
    b = FrobBasis(3, 1, 1)
    assert matrix_of_relations(SparsePoly.one(3, 1), b) == PolyMatrix.identity(3, 3, 1)


def test_matrix_qth_power_scalar():
    b = FrobBasis(3, 1, 2)
    g = parse_poly("x1 + x2^2", 3, 2)
    f = parse_poly("x1^3", 3, 2) * g ** 3  # x^q * g^q
    expected = PolyMatrix.scalar(9, parse_poly("x1", 3, 2) * g)
    assert matrix_of_relations(f, b) == expected


def test_matrix_identities_randomized():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice([3, 5])
        n = rng.randint(1, 2)
        b = FrobBasis(p, 1, n)
        f = rand_poly(rng, p, n)
        g = rand_poly(rng, p, n)
        mf = matrix_of_relations(f, b)
        mg = matrix_of_relations(g, b)
        assert matrix_of_relations(f + g, b) == mf + mg
        assert matrix_of_relations(f * g, b) == mg * mf
        assert mf * mg == mg * mf


def test_matrix_power_direct_columns():
    b = FrobBasis(3, 1, 1)
    m = matrix_power(parse_poly("x1^2", 3, 1), 2, b)  # M(x^4, 1)
    x = parse_poly("x1", 3, 1)
    expected = PolyMatrix.from_entries(
        3, 3, [(1, 0, x), (2, 1, x), (0, 2, x * x)], 3, 1
    )
    assert m == expected


def test_matrix_power_routes_agree():
    rng = random.Random(11)
    for _ in range(10):
        p = 3
        b = FrobBasis(p, 1, 2)
        f = rand_poly(rng, p, 2, max_deg=2, max_terms=3)
        for k in (2, 3):
            assert matrix_power(f, k, b) == matrix_of_relations(f, b).matrix_pow(k)


def _entrywise_product(a, b):
    """The reference product: entry (i, j) sums the SparsePoly products a_ik * b_kj."""
    out = PolyMatrix(a.rows, b.cols, a.p, a.n, a.names)
    for i in range(a.rows):
        for j in range(b.cols):
            total = SparsePoly.zero(a.p, a.n, a.names)
            for k in range(a.cols):
                total = total + a.entry(i, k) * b.entry(k, j)
            out.set_entry(i, j, total)
    return out


# exponents 0 and past 2^64, where the packed exponent needs wide bit fields
EXPONENTS = (0, 0, 1, 2, 3, 7, 2 ** 64, 2 ** 64 + 1, 2 ** 70 + 5)


def _random_matrix(rng, rows, cols, p, names):
    entries = []
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.6:
                terms = {
                    tuple(rng.choice(EXPONENTS) for _ in names): rng.randint(1, p - 1)
                    for _ in range(rng.randint(1, 3))
                }
                entries.append((i, j, SparsePoly(p, len(names), terms, names)))
    return PolyMatrix.from_entries(rows, cols, entries, p, len(names), names)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "extra", [(), ("next",), ("u", "v"), ("z",)], ids=["x", "x_n+1", "uv", "z"]
)
def test_product_matches_entrywise_reference(p, n, extra):
    # the rings of block_assemble (x_{n+1}), maltese (u, v) and sharp (z)
    names = default_names(n) + tuple(f"x{n + 1}" if v == "next" else v for v in extra)
    rng = random.Random(f"{p} {n} {extra}")
    for _ in range(6):
        rows, inner, cols = (rng.randint(1, 4) for _ in range(3))
        a = _random_matrix(rng, rows, inner, p, names)
        b = _random_matrix(rng, inner, cols, p, names)
        product = a * b
        assert product == _entrywise_product(a, b)
        assert (product.rows, product.cols, product.names) == (rows, cols, names)
        for col in product.data:
            for poly in col.values():
                assert poly.names == names
                assert all(0 < c < p for c in poly.terms.values())


def test_product_drops_entries_that_cancel():
    big = 2 ** 64
    def square(rows):
        entries = [(i, j, parse_poly(text, 3, 2))
                   for i, row in enumerate(rows) for j, text in enumerate(row)]
        return PolyMatrix.from_entries(2, 2, entries, 3, 2)

    a = square([[f"x1^{big}", f"x1^{big}*x2"], ["1", "1"]])
    b = square([["x2", "2"], ["-1", "1"]])
    product = a * b
    # x1^(2^64) x2 - x1^(2^64) x2 = 0, and 2 + 1 = 0 mod 3: neither is stored
    assert product.data == [
        {1: parse_poly("x2 - 1", 3, 2)},
        {0: parse_poly(f"2*x1^{big} + x1^{big}*x2", 3, 2)},
    ]
    assert product == _entrywise_product(a, b)



def test_product_ticks_a_column_before_forming_it():
    # a 1 x 1 product of two 2000-term polynomials has 4 * 10^6 term products
    # in its one column: a budget of 1000 refuses them before any is formed
    g = SparsePoly(3, 1, {(i,): 1 for i in range(2000)})
    a = PolyMatrix.scalar(1, g)
    ring.open_budget(1000)
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceWarning):
            a * a
    finally:
        ring.close_budget()
    assert time.perf_counter() - start < 0.1
    assert ring.work() == 24 + 2000 * 2000

def test_block_assemble_worked_example():
    # x^2 + x*y over F_3 assembled from g_0 = x^2, g_1 = x in one variable
    b = FrobBasis(3, 1, 1)
    big = block_assemble([parse_poly("x1^2", 3, 1), parse_poly("x1", 3, 1)], b)
    a0 = matrix_of_relations(parse_poly("x1^2", 3, 1), b).extend(("x1", "x2"))
    a1 = matrix_of_relations(parse_poly("x1", 3, 1), b).extend(("x1", "x2"))
    y = parse_poly("x2", 3, 2)
    zero = PolyMatrix(3, 3, 3, 2)
    expected = PolyMatrix.block(
        [[a0, zero, PolyMatrix.scalar(a1.rows, y) * a1], [a1, a0, zero], [zero, a1, a0]]
    )
    assert big == expected
    # and equals direct construction in the larger ring
    b2 = FrobBasis(3, 1, 2)
    assert big == matrix_of_relations(parse_poly("x1^2 + x1*x2", 3, 2), b2)


def test_block_assemble_constant_coefficient():
    b = FrobBasis(3, 1, 1)
    g0 = parse_poly("x1^2 + 1", 3, 1)
    big = block_assemble([g0], b)
    a0 = matrix_of_relations(g0, b).extend(("x1", "x2"))
    zero = PolyMatrix(3, 3, 3, 2)
    assert big == PolyMatrix.block(
        [[a0, zero, zero], [zero, a0, zero], [zero, zero, a0]]
    )


def test_block_assemble_random_agrees_with_direct():
    rng = random.Random(31)
    b = FrobBasis(3, 1, 1)
    b2 = FrobBasis(3, 1, 2)
    for _ in range(10):
        coeffs = [rand_poly(rng, 3, 1, max_deg=3, max_terms=3) for _ in range(3)]
        big = block_assemble(coeffs, b)
        g = SparsePoly.zero(3, 2)
        for s, c in enumerate(coeffs):
            g = g + c.extend(("x1", "x2")) * parse_poly("x2", 3, 2) ** s
        assert big == matrix_of_relations(g, b2)


def test_block_assemble_degree_bound():
    b = FrobBasis(3, 1, 1)
    one = SparsePoly.one(3, 1)
    with pytest.raises(ValueError):
        block_assemble([one, one, one, one], b)


def test_block_assemble_refuses_a_clashing_name():
    # the appended variable is x_{n+1}, here already a name of the ring
    b = FrobBasis(3, 1, 1)
    with pytest.raises(ValueError, match="'x2' already in the ring"):
        block_assemble([SparsePoly.one(3, 1, ("x2",))], b)


def test_extension_refuses_a_clashing_name_on_an_empty_matrix():
    # the fresh-name rule is the ring's, not the entries': a zero matrix
    # over F_3[x2] has no entry to extend, and still refuses x2 again
    with pytest.raises(ValueError, match="variable 'x2' already in the ring"):
        block_assemble([SparsePoly.zero(3, 1, ("x2",))], FrobBasis(3, 1, 1))
    with pytest.raises(ValueError, match="variable 'u' already in the ring"):
        PolyMatrix(2, 2, 3, 1, ("u",)).extend(("u", "u"))


def test_block_assemble_refuses_coefficients_over_two_rings():
    b = FrobBasis(3, 1, 1)
    with pytest.raises(ValueError, match="mismatched ambient rings"):
        block_assemble([parse_poly("x1", 3, 1), SparsePoly.one(3, 1, ("y1",))], b)


_I_X = PolyMatrix.identity(2, 3, 1)
_I_Y = PolyMatrix.identity(2, 3, 1, ("y1",))


@pytest.mark.parametrize(
    "grid, reason",
    [
        ([[None, None], [None, None]], "at least one block"),
        ([[_I_X, PolyMatrix.identity(1, 3, 1)]], "unequal shape: 2x2 and 1x1"),
        ([[_I_X, None], [_I_X]], "rows of unequal length"),
        ([[_I_X, _I_Y]], r"mismatched ambient rings: F_3\['x1'\] vs F_3\['y1'\]"),
    ],
    ids=["no-block", "unequal-shape", "ragged-grid", "two-rings"],
)
def test_block_refuses_a_bad_grid(grid, reason):
    with pytest.raises(ValueError, match=reason):
        PolyMatrix.block(grid)


_X5 = SparsePoly.variable(1, 5, 1).scale(2)  # 2*x1 over F_5, not F_3


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolyMatrix(1, 1, 3, 1).set_entry(0, 0, _X5),
        lambda: PolyMatrix.from_entries(1, 1, [(0, 0, _X5)], 3, 1),
        lambda: PolyMatrix(2, 2, 3, 1).add_block(
            1, 1, PolyMatrix.from_entries(1, 1, [(0, 0, _X5)], 5, 1)
        ),
    ],
    ids=["set_entry", "from_entries", "add_block-into-empty-cell"],
)
def test_entry_paths_refuse_a_foreign_ring(build):
    # the F_3 square of 2*x1 would print x1^2, where F_5 gives 4*x1^2
    with pytest.raises(ValueError, match=r"mismatched ambient rings: F_3\['x1'\] vs F_5"):
        build()


@pytest.mark.parametrize("row_off, col_off", [(1, 0), (0, 1), (-1, 0), (0, -1)],
                         ids=["row-overflow", "col-overflow", "row-before", "col-before"])
def test_add_block_refuses_a_block_that_does_not_fit(row_off, col_off):
    # refused before any column is written, past the end or before the start
    target = PolyMatrix.identity(2, 3, 1)
    with pytest.raises(ValueError, match=rf"block at \({row_off},{col_off}\) does not fit"):
        target.add_block(row_off, col_off, PolyMatrix.identity(2, 3, 1))
    assert target == PolyMatrix.identity(2, 3, 1)


def test_matrix_addition_refuses_a_mismatch_and_stores_no_zero():
    m = matrix_of_relations(parse_poly("x1^2 + x1*x2", 3, 2), FrobBasis(3, 1, 2))
    with pytest.raises(ValueError, match="size mismatch in matrix addition"):
        m + PolyMatrix(9, 8, 3, 2)
    with pytest.raises(ValueError, match="mismatched ambient rings"):
        m + PolyMatrix(9, 9, 3, 2, ("y1", "y2"))
    difference = m - m
    assert not any(difference.data)
    assert difference == PolyMatrix(9, 9, 3, 2)


def test_polymatrix_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'PolyMatrix'"):
        hash(PolyMatrix(2, 2, 3, 1))


def test_serialization():
    b = FrobBasis(3, 1, 1)
    m = matrix_of_relations(parse_poly("x1^2", 3, 1), b)
    data = json.loads(m.to_json())
    assert data["rows"] == data["cols"] == 3
    assert data["entries"] == [[0, 1, "x1"], [1, 2, "x1"], [2, 0, "1"]]
    csv_text = m.to_csv()
    assert csv_text.splitlines()[0] == "row,col,entry"
    assert len(csv_text.splitlines()) == 4
