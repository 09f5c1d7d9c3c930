import random

import pytest

from frobsig.ring import SparsePoly, is_prime, parse_poly


def rand_poly(rng, p, n, max_deg=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[exps] = rng.randint(1, p - 1)
    return SparsePoly(p, n, terms)


def test_parse_basic():
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    assert f.terms == {(2, 0): 1, (1, 1): 1}


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


def test_mismatched_rings_rejected():
    with pytest.raises(ValueError):
        parse_poly("x1", 3, 1) * parse_poly("x1", 3, 2)
    with pytest.raises(ValueError):
        parse_poly("x1", 3, 1) + parse_poly("x1", 5, 1)


def test_str_roundtrip():
    f = parse_poly("2*x1^2*x2 + x2 + 1", 3, 2)
    assert parse_poly(str(f), 3, 2) == f
