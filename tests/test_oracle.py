import random

import pytest

from frobsig.frobenius import (
    FrobBasis,
    PolyMatrix,
    frobenius_decompose,
    matrix_power,
)
from frobsig.hypersurface import free_rank_z2
from frobsig.monomial import MonomialData
from frobsig.oracle import (
    decompose_by_exponents,
    fedder_membership,
    invariant_factors_univariate,
)
from frobsig.ring import parse_poly

from test_ring import rand_poly


def test_decompose_paths_agree_randomized():
    rng = random.Random(41)
    for _ in range(1000):
        p = rng.choice([3, 5])
        n = rng.randint(1, 3)
        e = rng.randint(1, 2)
        b = FrobBasis(p, e, n)
        g = rand_poly(rng, p, n, max_deg=2 * b.q, max_terms=5)
        assert decompose_by_exponents(g, b) == frobenius_decompose(g, b)


def test_decompose_pure_power():
    b = FrobBasis(3, 1, 1)
    assert decompose_by_exponents(parse_poly("x1^3", 3, 1), b) == {
        0: parse_poly("x1", 3, 1)
    }


def test_decompose_worked_column():
    # the column for y^2x: y^2x * (x^2+xy) splits as x at y^2 plus y at x^2
    b = FrobBasis(3, 1, 2)
    g = parse_poly("x1^3*x2^2 + x1^2*x2^3", 3, 2)
    coords = decompose_by_exponents(g, b)
    assert coords == {
        b.index_of((0, 2)): parse_poly("x1", 3, 2),
        b.index_of((2, 0)): parse_poly("x2", 3, 2),
    }


def test_fedder_membership():
    assert fedder_membership((3,), 3, 1) is True
    assert fedder_membership((1,), 3, 1) is False
    assert fedder_membership((1, 1), 3, 1) is False
    assert fedder_membership((4, 1), 3, 1) is True


def test_fedder_validation():
    with pytest.raises(ValueError):
        fedder_membership((1,), 2, 1)
    with pytest.raises(ValueError):
        fedder_membership((), 3, 1)


def test_fedder_implies_zero_free_rank():
    for dvec, p, e in (((3,), 3, 1), ((3,), 5, 1), ((4, 2), 3, 1), ((1, 1), 3, 1)):
        md = MonomialData(dvec)
        b = FrobBasis(p, e, md.n)
        if fedder_membership(dvec, p, e):
            assert free_rank_z2(md.poly(p), b) == 0


def test_invariant_factors_worked_example():
    b = FrobBasis(3, 1, 1)
    m = matrix_power(parse_poly("x1^2", 3, 1), 2, b)  # M(x^4, 1)
    factors = [str(u) for u in invariant_factors_univariate(m)]
    assert factors == ["x1", "x1", "x1^2"]


@pytest.mark.parametrize(
    "diagonal, want",
    [
        (["x1", "x1+1"], ["1", "x1^2 + x1"]),
        # gcds of the k x k minors: x1, x1^2 and x1^3 (x1 + 1)(x1 + 2), so
        # the factors are x1, x1 and (x1 + 1)(x1 + 2) x1 = x1^3 + 2*x1
        (["x1^2+x1", "x1^2+2*x1", "x1"], ["x1", "x1", "x1^3 + 2*x1"]),
    ],
)
def test_invariant_factors_out_of_divisibility_order(diagonal, want):
    # the pivots leave these diagonals out of divisibility order, so the last
    # pass replaces neighbouring factors by their gcd and lcm
    entries = [(i, i, parse_poly(u, 3, 1)) for i, u in enumerate(diagonal)]
    m = PolyMatrix.from_entries(len(diagonal), len(diagonal), entries, 3, 1)
    assert [str(u) for u in invariant_factors_univariate(m)] == want


def test_invariant_factors_identity():
    factors = invariant_factors_univariate(PolyMatrix.identity(4, 3, 1))
    assert all(u.is_one() for u in factors)


def test_invariant_factors_nonvanishing_equals_rank_at_origin():
    # factors that are units in the local ring at the origin (nonzero
    # constant term) are exactly counted by the rank of A at the origin
    from frobsig.matfac import rank_mod_p

    rng = random.Random(3)
    for _ in range(20):
        b = FrobBasis(3, 1, 1)
        f = rand_poly(rng, 3, 1, max_deg=3, max_terms=2)
        if f.is_zero() or f.is_constant():
            continue
        for k in (1, 2):
            a = matrix_power(f, k, b)
            factors = invariant_factors_univariate(a)
            local_units = sum(1 for u in factors if u.constant_term() != 0)
            assert local_units == rank_mod_p(a.at_origin(), 3)


def test_invariant_factors_match_trivial_count_x_squared():
    from frobsig.hypersurface import presentation_fk
    from frobsig.matfac import trivial_summand_counts

    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1^2", 3, 1)
    a = matrix_power(f, 1, b)
    units = sum(1 for u in invariant_factors_univariate(a) if u.is_one())
    # r of the pair (A, A^2) is the rank of A at the origin
    assert units == trivial_summand_counts(presentation_fk(f, 1, b)).r == 1


def test_invariant_factors_divisibility_chain():
    b = FrobBasis(5, 1, 1)
    m = matrix_power(parse_poly("x1^3", 5, 1), 2, b)
    factors = invariant_factors_univariate(m)
    from frobsig.oracle import _udivmod, _upoly

    for a, c in zip(factors, factors[1:]):
        if a.is_zero():
            assert c.is_zero()
        elif not c.is_zero():
            assert not _udivmod(_upoly(c), _upoly(a), 5)[1]


def test_invariant_factors_zero_matrix():
    z = PolyMatrix(2, 2, 3, 1)
    assert all(u.is_zero() for u in invariant_factors_univariate(z))
