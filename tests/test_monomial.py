import json
from collections import Counter

import pytest

from frobsig.frobenius import FrobBasis, PolyMatrix, matrix_power
from frobsig.hypersurface import presentation_fk
from frobsig.matfac import trivial_summand_counts
from frobsig.monomial import (
    MonomialData,
    decomposition_report,
    diagonalize_monomial_matrix,
    eta,
    ffrt_witness,
    free_rank_formula,
)
from frobsig.ring import parse_poly


def test_monomial_data_validation():
    md = MonomialData((2, 1))
    assert md.n == 2 and md.d == 2
    assert len(list(md.gamma())) == 6
    with pytest.raises(ValueError):
        MonomialData(())
    with pytest.raises(ValueError):
        MonomialData((2, 0))


def test_eta_x_squared():
    md = MonomialData((2,))
    assert [eta(2, (c,), md, 3) for c in (0, 1, 2)] == [0, 2, 1]
    assert [eta(1, (c,), md, 3) for c in (0, 1, 2)] == [1, 2, 0]


def test_eta_x():
    md = MonomialData((1,))
    assert eta(1, (0,), md, 3) == 2
    assert eta(1, (1,), md, 3) == 1


def test_eta_validation():
    md = MonomialData((2,))
    with pytest.raises(ValueError):
        eta(0, (1,), md, 3)
    with pytest.raises(ValueError):
        eta(1, (3,), md, 3)


def test_eta_symmetry_and_conservation():
    for dvec in ((2,), (1, 1), (2, 1), (3, 2)):
        md = MonomialData(dvec)
        for q in (3, 5, 9):
            for k in range(1, q):
                total = 0
                for c in md.gamma():
                    m = eta(k, c, md, q)
                    total += m
                    mirror = tuple(d - x for d, x in zip(dvec, c))
                    assert m == eta(q - k, mirror, md, q)
                assert total == q ** md.n


def test_diagonalize_worked_example():
    b = FrobBasis(3, 1, 1)
    diag = diagonalize_monomial_matrix(matrix_power(parse_poly("x1^2", 3, 1), 2, b))
    assert dict(diag) == {(1,): 2, (2,): 1}


def test_diagonalize_identity():
    assert dict(diagonalize_monomial_matrix(PolyMatrix.identity(4, 3, 1))) == {
        (0,): 4
    }


def test_diagonalize_rejects_non_permutation():
    b = FrobBasis(3, 1, 2)
    m = matrix_power(parse_poly("x1^2 + x1*x2", 3, 2), 1, b)
    with pytest.raises(ValueError):
        diagonalize_monomial_matrix(m)


def test_eta_matches_diagonalization():
    # the last four points lie below the threshold q > d+1, three with p = 2
    for dvec, p, e in (
        ((2,), 3, 1), ((1, 1), 3, 1), ((2, 1), 3, 1), ((3,), 5, 1),
        ((3, 2), 3, 1), ((4,), 2, 2), ((2, 3), 2, 1), ((2, 1, 1), 2, 1),
    ):
        md = MonomialData(dvec)
        b = FrobBasis(p, e, md.n)
        f = md.poly(p, b.names)
        q = b.q
        for k in range(1, q):
            diag = diagonalize_monomial_matrix(matrix_power(f, k, b))
            for c in md.gamma():
                assert diag.get(tuple(c), 0) == eta(k, c, md, q)


def test_free_rank_formula_values():
    md = MonomialData((2,))
    assert free_rank_formula(md, 3, 2) == 1
    assert free_rank_formula(md, 3, 1) == 0
    assert free_rank_formula(MonomialData((1, 1)), 5, 3) == 9


def test_free_rank_triple_agreement():
    for dvec, p in (((2,), 3), ((1, 1), 3), ((2, 1), 3), ((2,), 5)):
        md = MonomialData(dvec)
        b = FrobBasis(p, 1, md.n)
        f = md.poly(p, b.names)
        for k in range(1, b.q):
            closed = free_rank_formula(md, b.q, k)
            assert closed == eta(k, md.dvec, md, b.q)
            assert closed == trivial_summand_counts(presentation_fk(f, k, b)).t


def test_decomposition_report_x_squared():
    rep = decomposition_report(MonomialData((2,)), 3, 1)
    assert rep.free_rank == 5
    assert rep.summands == {(1,): 4}
    assert rep.threshold_ok is False  # q = 3 = d + 1
    data = json.loads(rep.to_json())
    assert data["summands"] == [{"c": [1], "multiplicity": 4}]


def test_decomposition_report_both_sides_of_threshold():
    # eta counts the labels for every q; summed diagonalization is the check
    sides = set()
    for dvec in ((1,), (2,), (3,), (5,), (1, 1), (2, 1), (3, 2), (2, 1, 1)):
        md = MonomialData(dvec)
        for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):
            b = FrobBasis(p, e, md.n)
            if b.size > 400:
                continue
            rep = decomposition_report(md, p, e)
            f = md.poly(p, b.names)
            labels = Counter()
            for k in range(1, b.q):
                labels.update(diagonalize_monomial_matrix(matrix_power(f, k, b)))
            free = b.size + labels.pop((0,) * md.n, 0) + labels.pop(md.dvec, 0)
            assert rep.free_rank == free
            assert rep.summands == dict(labels)
            assert rep.threshold_ok == (b.q > md.d + 1)
            sides.add(rep.threshold_ok)
    assert sides == {True, False}


def test_decomposition_report_refuses_bad_p_and_e():
    md = MonomialData((2, 1))
    for p, e in ((4, 1), (9, 1), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            decomposition_report(md, p, e)


def test_decomposition_report_regular():
    rep = decomposition_report(MonomialData((1,)), 3, 1)
    assert rep.free_rank == 9
    assert rep.summands == {}


def test_report_total_is_diagonal_count():
    # free rank plus summand multiplicities accounts for all q^n(q-1) labels
    # plus the q^n free copies
    for dvec, p, e in (((2,), 5, 1), ((1, 1), 3, 1), ((2, 1), 5, 1)):
        rep = decomposition_report(MonomialData(dvec), p, e)
        q = p ** e
        n = len(dvec)
        assert rep.free_rank + sum(rep.summands.values()) == q ** n + (q - 1) * q ** n


def test_ffrt_witness():
    w1 = ffrt_witness(MonomialData((2,)), 3, 1)
    w2 = ffrt_witness(MonomialData((2,)), 3, 2)
    assert w1 <= {(0,), (1,), (2,)}
    assert w1 == w2  # stabilizes
    wxy = ffrt_witness(MonomialData((1, 1)), 3, 2)
    assert wxy <= {(a, b) for a in (0, 1) for b in (0, 1)}
    assert len(ffrt_witness(MonomialData((3, 2)), 3, 2)) <= 12
