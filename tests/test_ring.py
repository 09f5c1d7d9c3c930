import random
import time
from math import comb

import pytest

from frobsig.frobenius import (PolyMatrix, block_assemble, matrix_of_relations,
                               matrix_power)
from frobsig.hypersurface import check_exponents
from frobsig.matfac import verify_matfac
from frobsig.monomial import (MonomialData, diagonalize_monomial_matrix, eta,
                               free_rank_formula)
from frobsig.ring import (FrobBasis, SparsePoly, extended_names, is_prime, parse_poly,
                          ring_names)


def rand_poly(rng, p, n, max_deg=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[exps] = rng.randint(1, p - 1)
    return SparsePoly(p, n, terms)


def test_parse_basic():
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    assert f.terms == {(2, 0): 1, (1, 1): 1}


def test_parse_is_linear_in_the_terms():
    # terms are summed into one dict, not added one SparsePoly at a time
    text = "+".join(f"x1^{i}" for i in range(1, 24001))
    start = time.perf_counter()
    f = parse_poly(text, 97, 1)
    assert time.perf_counter() - start < 1.0
    assert len(f.terms) == 24000


def test_parse_coefficient_reduction():
    assert parse_poly("3*x1", 3, 1).is_zero()


def test_parse_single_monomial():
    assert parse_poly("x1^2*x2", 5, 2).terms == {(2, 1): 1}


def test_parse_signs_and_repeats():
    f = parse_poly("-x1 + 2*x1 - -1", 5, 1)
    assert f.terms == {(1,): 1, (0,): 1}


@pytest.mark.parametrize(
    "text", ["", "x1 +", "y1", "u", "v", "z", "x0", "x3", "x1^", "x1 x2", "2**x1"]
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_poly(text, 3, 2)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(m):
        return m >= 2 and all(m % f for f in range(2, int(m ** 0.5) + 1))

    assert all(is_prime(m) == by_trial_division(m) for m in range(10 ** 5))


def test_is_prime_large_moduli():
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert is_prime(1000000000000000003)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    # past the certified bound a small factor still decides the answer
    assert not is_prime(10 ** 25)
    assert not is_prime(41 * (2 ** 89 - 1))
    with pytest.raises(ValueError, match="too large to certify"):
        is_prime(2 ** 89 - 1)


def test_parse_requires_prime():
    with pytest.raises(ValueError):
        parse_poly("x1", 4, 1)


def test_mul_difference_of_squares():
    a = parse_poly("x1 + 1", 3, 1)
    b = parse_poly("x1 - 1", 3, 1)
    assert a * b == parse_poly("x1^2 + 2", 3, 1)


def test_mul_by_zero():
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    assert (f * SparsePoly.zero(3, 2)).is_zero()


def test_square_expansion():
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    # schoolbook: (x^2 + xy)^2 = x^4 + 2x^3y + x^2y^2
    assert f * f == parse_poly("x1^4 + 2*x1^3*x2 + x1^2*x2^2", 3, 2)


def test_pow_basics():
    x = parse_poly("x1", 3, 1)
    assert x ** 3 == parse_poly("x1^3", 3, 1)
    assert parse_poly("x1^2", 3, 1) ** 2 == parse_poly("x1^4", 3, 1)
    assert (x ** 0).is_one()


def test_pow_frobenius():
    f = parse_poly("x1 + x2", 3, 2)
    assert f ** 3 == parse_poly("x1^3 + x2^3", 3, 2)


def test_ring_axioms_randomized():
    rng = random.Random(17)
    for _ in range(60):
        p = rng.choice([3, 5])
        n = rng.randint(1, 3)
        a, b, c = (rand_poly(rng, p, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) ** p == a ** p + b ** p


def test_difference_with_itself_is_zero():
    rng = random.Random(29)
    for _ in range(20):
        f = rand_poly(rng, rng.choice([2, 3, 5]), rng.randint(1, 3))
        assert (f - f).is_zero()
    a = parse_poly("x1^2 + 2*x1*x2", 5, 2)
    assert a - parse_poly("x1*x2", 5, 2) == parse_poly("x1^2 + x1*x2", 5, 2)


def test_mismatched_rings_rejected():
    with pytest.raises(ValueError):
        parse_poly("x1", 3, 1) * parse_poly("x1", 3, 2)
    with pytest.raises(ValueError):
        parse_poly("x1", 3, 1) + parse_poly("x1", 5, 1)


def test_str_roundtrip():
    f = parse_poly("2*x1^2*x2 + x2 + 1", 3, 2)
    assert parse_poly(str(f), 3, 2) == f


def test_power_by_base_p_digits_equals_repeated_product():
    # f^k is formed digit by digit in base p; the product of k copies of f
    # is the reference, and the Lucas bound holds on every power
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7):
        for _ in range(6):
            n = rng.randint(1, 3)
            f = rand_poly(rng, p, n, max_deg=3, max_terms=3)
            product = SparsePoly.one(p, n)
            for k in range(41):
                assert f ** k == product, (p, f, k)
                assert len(product.terms) <= _lucas_bound(f, k)
                product = product * f


def _lucas_bound(f, m):
    """A bound on the terms of f^m: prod_i C(m_i + t - 1, t - 1) for the
    base-p digits m_i of m and the t terms of f, since f^(m_i) has at most
    as many terms as there are monomials of degree m_i in t unknowns."""
    t = max(len(f.terms), 1)
    bound = 1
    while m:
        m, digit = divmod(m, f.p)
        bound *= comb(digit + t - 1, t - 1)
    return bound


def test_power_terms_bound_is_lucas():
    # (x1 + x2)^k over F_3 has prod_i (k_i + 1) terms, k_i the base-3 digits
    f = parse_poly("x1 + x2", 3, 2)
    for k, want in ((1, 2), (2, 3), (8, 9), (26, 27), (9, 2), (10, 4)):
        assert _lucas_bound(f, k) == want
        assert len((f ** k).terms) == want
    assert _lucas_bound(SparsePoly.zero(3, 2), 5) == 1


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: SparsePoly(3, 2, {(1, 0): 1, (0, 1): 1}, ("a", "a")),
         "variable 'a' named twice"),
        (lambda: PolyMatrix(1, 1, 3, 2, ("a", "a")), "variable 'a' named twice"),
        (lambda: PolyMatrix(2, 2, 3, 2, ("a",)), "names length does not match"),
        (lambda: PolyMatrix.identity(2, 3, 2, ("x1", "x1")),
         "variable 'x1' named twice"),
        (lambda: PolyMatrix.identity(2, 3, 1, ("x1", "x2")),
         "names length does not match"),
    ],
    ids=["poly-repeat", "matrix-repeat", "matrix-count", "identity-repeat",
         "identity-count"],
)
def test_variable_names_are_checked_once(build, reason):
    with pytest.raises(ValueError, match=reason):
        build()


def test_ring_names_defaults_and_keeps_given_names():
    assert ring_names(2) == ("x1", "x2")
    assert ring_names(2, ["a", "b"]) == ("a", "b")
    assert SparsePoly.one(3, 2, ("a", "b")).names == ("a", "b")
    assert PolyMatrix(1, 1, 3, 2).names == ("x1", "x2")


def test_basis_forms_its_place_values_on_first_use():
    # a free rank reads only q and q^n of its basis; the n place values
    # q^0..q^(n-1), 0.25 s at n = 10000, are formed when an index is
    b = FrobBasis(3, 1, 10000)
    assert (b.q, b.size) == (3, 3 ** 10000) and b._radix is None
    assert b.index_of((0, 1) + (0,) * 9997 + (2,)) == 3 + 2 * 3 ** 9999
    assert b.radix[:3] == (1, 3, 9) and len(b.radix) == 10000


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: SparsePoly(3, 1, {(1,): 1.5}), "coefficient 1.5 is not an integer"),
        (lambda: SparsePoly(3, 1, {(2.5,): 1}), r"exponent tuple \(2\.5,\) holds a non"),
        (lambda: matrix_of_relations(SparsePoly(3, 1, {(2.0,): 1}), FrobBasis(3, 1, 1)),
         r"exponent tuple \(2\.0,\) holds a non"),
        (lambda: SparsePoly.variable(1, 3, 1) ** 2.0, "exponent 2.0 is not an integer"),
        (lambda: matrix_power(SparsePoly.variable(1, 3, 1), 1.5, FrobBasis(3, 1, 1)),
         "exponent 1.5 is not an integer"),
        (lambda: eta(1.5, (0, 0), MonomialData((1, 1)), 3), "k 1.5 is not an integer"),
        (lambda: free_rank_formula(MonomialData((1, 1)), 3, 1.5),
         "k 1.5 is not an integer"),
    ],
    ids=["coefficient", "exponent", "matrix", "pow", "matrix-power", "eta",
         "free-rank-formula"],
)
def test_non_integer_data_is_refused(build, reason):
    # a float once passed through: 1.5*x1, x1^2.5, float matrix rows, 2.25
    with pytest.raises(ValueError, match=reason):
        build()


_ONE = SparsePoly.one(3, 1)


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: matrix_of_relations(SparsePoly.one(3, 2), FrobBasis(3, 1, 1)),
         "polynomial not in the ambient ring of the basis"),
        (lambda: PolyMatrix(2, 2, 3, 1).entry(2, 0), r"entry \(2,0\) out of range"),
        (lambda: PolyMatrix(-1, 2, 3, 1), "matrix dimensions must be non-negative"),
        (lambda: PolyMatrix(2, 3, 3, 1) * PolyMatrix(2, 3, 3, 1),
         "size mismatch in matrix multiplication"),
        (lambda: PolyMatrix(2, 3, 3, 1).matrix_pow(2),
         "matrix power of non-square matrix"),
        (lambda: PolyMatrix.identity(2, 3, 1).matrix_pow(-1), "negative matrix power"),
        (lambda: matrix_power(_ONE, 0, FrobBasis(3, 1, 1)), "k must be >= 1"),
        (lambda: block_assemble([], FrobBasis(3, 1, 1)),
         "need at least one coefficient polynomial"),
        (lambda: verify_matfac(PolyMatrix(2, 3, 3, 1), PolyMatrix(3, 3, 3, 1), _ONE),
         "matrix factorization requires square matrices"),
        (lambda: verify_matfac(PolyMatrix(2, 2, 3, 1), PolyMatrix(3, 3, 3, 1), _ONE),
         "matrix factorization requires equal sizes"),
        (lambda: diagonalize_monomial_matrix(PolyMatrix(2, 3, 3, 1)),
         "expected a square matrix"),
        (lambda: SparsePoly(3, -1), "variable count must be non-negative"),
        (lambda: SparsePoly(3, 2, {(1,): 1}), r"exponent tuple \(1,\) has wrong length"),
        (lambda: SparsePoly(3, 1, {(-1,): 1}), r"negative exponent in \(-1,\)"),
        (lambda: SparsePoly.variable(3, 3, 2), r"variable index 3 out of range 1\.\.2"),
        (lambda: _ONE ** -1, "^negative exponent$"),
        (lambda: FrobBasis(3, 1, 0), "variable count must be >= 1"),
        (lambda: FrobBasis(3, 1.5, 1), "^e 1.5 is not an integer$"),
        (lambda: FrobBasis(3, 1, 2.0), r"^variable count 2\.0 is not an integer$"),
        (lambda: check_exponents((2.5, 1)),
         r"^exponent vector entry 2\.5 is not an integer$"),
        (lambda: MonomialData((2.5,)), r"^exponent vector entry 2\.5 is not an integer$"),
        (lambda: check_exponents((0, 1)), "^exponent vector entries must be >= 1$"),
        (lambda: extended_names(("x1", "x2"), ("x2", "x1", "t")),
         "extension names must start with existing names"),
        (lambda: parse_poly("x1$", 3, 1), "unexpected character '\\$' in polynomial"),
    ],
    ids=["basis-check", "index", "negative-size", "product-size", "pow-non-square",
         "pow-negative", "matrix-power-0", "block-assemble-empty", "matfac-non-square",
         "matfac-unequal", "diagonalize-non-square", "poly-negative-n",
         "exponent-length", "negative-exponent", "variable-range", "negative-power",
         "basis-n-0", "basis-e-float", "basis-n-float", "exponent-float",
         "monomial-exponent-float", "exponent-0", "extension-prefix",
         "parse-character"],
)
def test_library_refusals_name_their_cause(build, reason):
    # refusals of the library API that no CLI route reaches
    with pytest.raises(ValueError, match=reason):
        build()
