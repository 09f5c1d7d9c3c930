import itertools
from fractions import Fraction

import pytest

from frobsig import fsig
from frobsig.oracle import w_values_by_subsets
from frobsig.fsig import (
    bernoulli,
    empirical_sequence,
    expansion_check,
    expansion_coefficients,
    fsignature_uv_closed,
    fsignature_z2_closed,
    sum_powers,
    w_values,
)
from frobsig.ring import parse_poly


def test_w_values_examples():
    assert w_values((2, 1)).values == (2, 2, 0)
    assert w_values((1, 1, 1)).values == (1, 0, 0, 0)
    assert w_values((3, 2)).values == (6, 3, 0)


def test_w_values_invariants():
    for dvec in itertools.product(range(1, 5), repeat=3):
        table = w_values(dvec)
        d = max(dvec)
        assert table.values[0] == Fraction(
            dvec[0] * dvec[1] * dvec[2]
        )
        assert table.values[-1] == 0  # W_n vanishes since d is attained


def test_w_values_match_subset_sums():
    for n in range(1, 5):
        for dvec in itertools.product(range(1, 5), repeat=n):
            assert list(w_values(dvec).values) == w_values_by_subsets(dvec)


def test_w_values_validation():
    with pytest.raises(ValueError):
        w_values(())
    with pytest.raises(ValueError):
        w_values((1, 0))


def test_uv_closed_values():
    assert fsignature_uv_closed((1,)) == 1
    assert fsignature_uv_closed((2,)) == Fraction(1, 2)
    for d in range(1, 7):
        assert fsignature_uv_closed((d,)) == Fraction(1, d)
    assert fsignature_uv_closed((1, 1)) == Fraction(2, 3)
    assert fsignature_uv_closed((2, 1)) == Fraction(5, 12)


def test_uv_closed_range():
    for dvec in itertools.product(range(1, 5), repeat=2):
        s = fsignature_uv_closed(dvec)
        assert 0 < s <= 1


def test_z2_closed_values():
    assert fsignature_z2_closed((1,)) == 1
    assert fsignature_z2_closed((1, 1)) == Fraction(1, 2)
    for n in range(1, 6):
        assert fsignature_z2_closed((1,) * n) == Fraction(1, 2 ** (n - 1))
    assert fsignature_z2_closed((2, 1)) == 0
    assert fsignature_z2_closed((3, 3, 3)) == 0


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_sum_powers_values():
    assert sum_powers(3, 2) == 14
    assert sum_powers(0, 5) == 0
    assert sum_powers(10, 3) == 3025


def test_sum_powers_matches_naive():
    for delta in (0, 1, 2, 7, 50, 200):
        for s in range(9):
            assert sum_powers(delta, s) == sum(r ** s for r in range(1, delta + 1))


def test_expansion_check():
    assert expansion_check((2, 1), (0, 0))
    assert expansion_check((4,), (Fraction(1, 2),))
    assert expansion_check((3, 2, 2), (Fraction(1, 2), Fraction(1, 3), 0))


def test_expansion_coefficients_match_the_product():
    # the expanded polynomial and the product agree at rational (r, q)
    points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)),
              (Fraction(-3, 2), Fraction(5, 7)), (Fraction(2, 3), Fraction(-4))]
    cases = [((2, 1), (0, 0)), ((4,), (Fraction(1, 2),)),
             ((3, 2, 2), (Fraction(1, 2), Fraction(1, 3), 0)),
             ((1, 3, 4), (Fraction(-1, 3), 2, Fraction(5, 4)))]
    for dvec, us in cases:
        coeffs = expansion_coefficients(dvec, us)
        assert all(c != 0 for c in coeffs.values())
        assert max(i + j for i, j in coeffs) == len(dvec)
        d = max(dvec)
        for r, q in points:
            product = Fraction(1)
            for dj, u in zip(dvec, us):
                product *= dj * r + q * Fraction(d - dj, d) + u
            assert sum(c * r ** i * q ** j for (i, j), c in coeffs.items()) == product


def test_expansion_check_rejects_wrong_leading_coefficient(monkeypatch):
    # for (2,1) the r^2 coefficient is d_1*d_2 = W_0 = 2; a tampered W table
    # must fail the check
    table = w_values((2, 1))
    tampered = fsig.WTable(dvec=table.dvec, values=(3,) + table.values[1:])
    monkeypatch.setattr(fsig, "w_values", lambda dvec: tampered)
    assert not expansion_check((2, 1), (0, 0))


def test_expansion_check_validation():
    with pytest.raises(ValueError):
        expansion_check((2, 1), (0,))


def test_empirical_uv():
    f = parse_poly("x1^2", 5, 1)
    rep = empirical_sequence(f, 5, range(1, 2), "uv")
    assert rep.empirical == [(1, Fraction(13, 25))]
    assert rep.closed_form == Fraction(1, 2)


def test_empirical_uv_regular():
    f = parse_poly("x1", 3, 1)
    rep = empirical_sequence(f, 3, range(1, 3), "uv")
    assert [s for _, s in rep.empirical] == [1, 1]


def test_empirical_z2():
    f = parse_poly("x1", 3, 1)
    rep = empirical_sequence(f, 3, range(1, 3), "z2")
    assert [s for _, s in rep.empirical] == [1, 1]
    assert rep.closed_form == 1


def test_empirical_gaps_shrink():
    f = parse_poly("x1^2", 3, 1)
    rep = empirical_sequence(f, 3, range(1, 4), "uv")
    gaps = [g for _, g in rep.gaps()]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


def test_empirical_resource_bound():
    f = parse_poly("x1", 3, 1)
    with pytest.raises(ResourceWarning):
        empirical_sequence(f, 3, range(1, 20), "uv", max_size=100)


def test_empirical_validation():
    with pytest.raises(ValueError):
        empirical_sequence(parse_poly("x1", 3, 1), 3, range(1, 2), "qq")
    with pytest.raises(ValueError):
        empirical_sequence(parse_poly("1", 3, 1), 3, range(1, 2), "uv")
    with pytest.raises(ValueError):
        empirical_sequence(parse_poly("x1", 2, 1), 2, range(1, 2), "z2")


def test_report_json():
    f = parse_poly("x1^2", 5, 1)
    rep = empirical_sequence(f, 5, range(1, 2), "uv")
    data = rep.to_json_dict()
    assert data["closed_form"] == "1/2"
    assert data["empirical"] == [{"e": 1, "s": "13/25"}]
