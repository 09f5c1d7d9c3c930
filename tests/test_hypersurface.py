import json
import random
import time
from collections import Counter
from math import comb

import pytest

from frobsig import cli, hypersurface, matfac, ring
from frobsig.frobenius import (
    FrobBasis,
    PolyMatrix,
    block_assemble,
    frobenius_decompose,
    matrix_of_relations,
    matrix_power,
)
from frobsig.hypersurface import (
    _blocks,
    _pair,
    chain_dims,
    free_rank_uv,
    free_rank_z2,
    jordan_type,
    presentation_fk,
)
from frobsig.matfac import (
    maltese,
    rank_mod_p,
    trivial_summand_counts,
    uv_decomposition,
    verify_matfac,
    z2_presentation,
)
from frobsig.monomial import MonomialData, free_rank_formula
from frobsig.oracle import han_colength, invariant_factors_univariate
from frobsig.ring import SparsePoly, default_names, echelon, parse_poly


def test_presentation_fk_basic():
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1^2", 3, 1)
    mf = presentation_fk(f, 1, b)
    assert mf.phi == matrix_power(f, 1, b)
    assert mf.psi == matrix_power(f, 2, b)
    assert verify_matfac(mf.phi, mf.psi, f)


def test_presentation_fk_all_k():
    b = FrobBasis(3, 1, 2)
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    for k in range(1, b.q):
        mf = presentation_fk(f, k, b)
        assert verify_matfac(mf.phi, mf.psi, f)


def test_presentation_fk_validation():
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1", 3, 1)
    with pytest.raises(ValueError):
        presentation_fk(f, 0, b)
    with pytest.raises(ValueError):
        presentation_fk(f, 3, b)
    with pytest.raises(ValueError):
        presentation_fk(SparsePoly.one(3, 1), 1, b)
    with pytest.raises(ValueError):
        presentation_fk(SparsePoly.zero(3, 1), 1, b)


def test_uv_decomposition_regular():
    # x + uv is a regular hypersurface: everything is free, rank q^2 = 9
    b = FrobBasis(3, 1, 1)
    dec = uv_decomposition(parse_poly("x1", 3, 1), b)
    assert dec.r_e == 3 and len(dec.blocks) == 2
    assert dec.free_rank_total == 9
    for block in dec.blocks:
        assert block.counts.t + block.counts.r == block.matfac.size


def test_uv_decomposition_x_squared():
    b = FrobBasis(3, 1, 1)
    dec = uv_decomposition(parse_poly("x1^2", 3, 1), b)
    by_k = {blk.k: (blk.counts.t, blk.counts.r) for blk in dec.blocks}
    assert by_k == {1: (1, 1), 2: (1, 1)}
    data = json.loads(dec.to_json())
    assert data["q"] == 3 and data["r_e"] == 3
    assert data["free_rank_total"] == dec.free_rank_total


def test_uv_blocks_are_maltese_of_power_pairs():
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1^2", 3, 1)
    dec = uv_decomposition(f, b)
    for blk in dec.blocks:
        assert blk.matfac == maltese(presentation_fk(f, blk.k, b))
        assert verify_matfac(blk.matfac.phi, blk.matfac.psi, blk.matfac.f)


def test_free_rank_uv_values():
    b1 = FrobBasis(3, 1, 1)
    assert free_rank_uv(parse_poly("x1^2", 3, 1), b1) == 5
    assert free_rank_uv(parse_poly("x1", 3, 1), b1) == 9
    b2 = FrobBasis(3, 1, 2)
    # xy: t_k = max(0, q - (q-k))^2 = k^2, total 9 + 2*(1 + 4) = 19
    assert free_rank_uv(parse_poly("x1*x2", 3, 2), b2) == 19


def test_swap_symmetry_of_counts():
    b = FrobBasis(3, 1, 2)
    f = parse_poly("x1^2 + x2^2", 3, 2)
    for k in range(1, b.q):
        c = trivial_summand_counts(presentation_fk(f, k, b))
        c_swapped = trivial_summand_counts(presentation_fk(f, b.q - k, b))
        assert c.t == c_swapped.r and c.r == c_swapped.t


def test_z2_presentation():
    b = FrobBasis(3, 1, 1)
    pres = z2_presentation(parse_poly("x1", 3, 1), b)
    assert pres.matfac.size == 6
    assert str(pres.matfac.f) == "x1 + z^2"
    assert verify_matfac(pres.matfac.phi, pres.matfac.psi, pres.matfac.f)
    assert pres.free_rank_total == 3


def test_z2_presentation_p5():
    b = FrobBasis(5, 1, 1)
    f = parse_poly("x1^2", 5, 1)
    pres = z2_presentation(f, b)
    # blocks are A^2 and A^3, each 5x5; column 0 of A^2 = M(x1^4) is x1^4
    assert pres.matfac.phi.entry(0, 0).is_zero()
    assert pres.matfac.phi.entry(4, 0).is_one()
    assert pres.matfac.size == 10
    assert pres.free_rank_total == free_rank_z2(f, b) == 1


def test_free_rank_z2_values():
    b = FrobBasis(3, 1, 1)
    assert free_rank_z2(parse_poly("x1", 3, 1), b) == 3
    assert free_rank_z2(parse_poly("x1^2", 3, 1), b) == 1
    assert free_rank_z2(parse_poly("x1^3", 3, 1), b) == 0


def test_z2_rejects_p2():
    b = FrobBasis(2, 1, 1)
    f = parse_poly("x1", 2, 1)
    with pytest.raises(ValueError, match=r"^the f\+z\^2 target requires p odd$"):
        z2_presentation(f, b)
    with pytest.raises(ValueError, match=r"^the f\+z\^2 target requires p odd$"):
        free_rank_z2(f, b)


def rand_local(rng, p, n, max_deg, max_terms):
    """Random nonzero f with f(0) = 0."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_deg) for _ in range(n))
            if any(exps):
                terms[exps] = rng.randint(1, p - 1)
    return SparsePoly(p, n, terms)


def test_free_ranks_match_summand_counts_random():
    # free ranks from the chain f^j A against the trivial-summand counts of
    # the pairs and against ranks at the origin of the matrices M(f^j, e);
    # at (5, 2, 2) binomials keep every f^k sparse, so no matrix squaring
    plan = (
        [(3, 1, 1, 3)] * 4 + [(5, 1, 1, 3)] * 4 + [(3, 1, 2, 3)] * 8
        + [(5, 1, 2, 3)] * 6 + [(3, 2, 1, 3)] * 4 + [(5, 2, 1, 3)] * 3
        + [(3, 2, 2, 3)] * 4 + [(5, 2, 2, 2)] * 2
    )
    for seed in (2025, 2026):
        rng = random.Random(seed)
        for p, e, n, max_terms in plan:
            b = FrobBasis(p, e, n)
            f = rand_local(rng, p, n, 3, max_terms)
            half = (b.q - 1) // 2
            ranks = [
                rank_mod_p(matrix_power(f, j, b).at_origin(), p)
                for j in range(1, b.q)
            ]
            uv = b.size + 2 * sum(
                trivial_summand_counts(presentation_fk(f, k, b)).t
                for k in range(1, b.q)
            )
            z2 = trivial_summand_counts(presentation_fk(f, half, b))
            assert uv == b.size + 2 * sum(ranks)
            assert z2.t + z2.r == ranks[half - 1] + ranks[half]
            assert free_rank_uv(f, b) == uv
            assert free_rank_z2(f, b) == z2.t + z2.r


def test_free_ranks_build_no_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("free ranks must not build or verify pairs")

    monkeypatch.setattr(hypersurface, "presentation_fk", refuse)
    monkeypatch.setattr(matfac, "MatFac", refuse)
    monkeypatch.setattr(matfac, "verify_matfac", refuse)
    b = FrobBasis(3, 1, 2)
    assert free_rank_uv(parse_poly("x1*x2", 3, 2), b) == 19
    # ranks at the origin of M(x1*x2) and M((x1*x2)^2): 2^2 and 1^2
    assert free_rank_z2(parse_poly("x1*x2", 3, 2), b) == 4 + 1


def test_units_refused_on_free_rank_paths():
    b = FrobBasis(3, 1, 1)
    for f in (parse_poly("1 + x1", 3, 1), SparsePoly.one(3, 1)):
        for fn in (free_rank_uv, free_rank_z2, uv_decomposition, z2_presentation):
            with pytest.raises(ValueError, match="vanish at the origin"):
                fn(f, b)
    # the power pair of a unit still factors it
    mf = presentation_fk(parse_poly("1 + x1", 3, 1), 1, b)
    assert verify_matfac(mf.phi, mf.psi, mf.f)


def test_free_rank_uv_reaches_e4():
    # q^n = 6561: far past the matrix path, against the monomial closed form
    md = MonomialData((2, 1))
    b = FrobBasis(3, 4, 2)
    q = b.q
    want = q ** 2 + 2 * sum(free_rank_formula(md, q, k) for k in range(1, q))
    assert free_rank_uv(md.poly(3), b) == want


# -- the Jordan type of f on A ------------------------------------------------


def _han_pair(a, b, p):
    """Jordan type of x+y on F_p[x,y]/(x^a, y^b) from Han's formula alone."""
    return _blocks([a * b - han_colength(a, b, c, p) for c in range(a + b)])


def _chain_pair(a, b, p):
    """Jordan type of x+y on F_p[x,y]/(x^a, y^b) by walking its chain."""

    def times_x_plus_y(row):
        # x^i y^j is basis index i*b + j
        out = {}
        for m, c in row.items():
            i, j = divmod(m, b)
            for ok, step in ((i + 1 < a, b), (j + 1 < b, 1)):
                if ok:
                    out[m + step] = (out.get(m + step, 0) + c) % p
        return {m: c for m, c in out.items() if c}

    span, dims = {m: {m: 1} for m in range(a * b)}, []
    while span:
        dims.append(len(span))
        span = echelon(map(times_x_plus_y, span.values()), p)
    return _blocks(dims)


def test_pair_rule_matches_the_oracle_smith_form():
    # x+y on F_p[x,y]/(x^a, y^b) is t on the cokernel of (t-y)^a acting on
    # F_p[t][y]/(y^b): the b x b matrix C(a, i-j) (-1)^(i-j) t^(a-i+j)
    for p in (2, 3, 5, 7):
        for a in range(1, 13):
            for b in range(1, 13):
                entries = [
                    (i, j, SparsePoly.monomial(
                        (a - i + j,), p, 1, (-1) ** (i - j) * comb(a, i - j), ("t",)))
                    for i in range(b)
                    for j in range(i + 1)
                    if comb(a, i - j) % p
                ]
                m = PolyMatrix.from_entries(b, b, entries, p, 1, ("t",))
                factors = invariant_factors_univariate(m)
                assert all(f.is_monomial() for f in factors)
                degrees = Counter(f.total_degree() for f in factors)
                degrees.pop(0, None)
                assert dict(_pair(a, b, p)) == _han_pair(a, b, p) == degrees


@pytest.mark.parametrize(
    "p, e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
)
def test_pair_rule_matches_the_chain_of_x1_plus_x2(p, e):
    b = FrobBasis(p, e, 2)
    f = parse_poly("x1+x2", p, 2)
    lam = _blocks(chain_dims(f, b))
    assert lam == dict(_pair(b.q, b.q, p)) == jordan_type(f, b)


def _residual(r, s, p):
    """Whether the pair r <= s is in _pair's residual case, r + s <= P with
    P the least power of p >= r, which it splits by the digit of Q = P/p."""
    big = 1
    while big < r:
        big *= p
    return s < big and r + s <= big


def test_digit_rules_match_han():
    # every pair 1 <= r <= s <= 60, against Han's formula in the oracle, which
    # no route of the library reads
    for p in (2, 3, 5, 7, 11, 13):
        memo = {}
        for r in range(1, 61):
            for s in range(r, 61):
                assert dict(_pair(r, s, p, memo)) == _han_pair(r, s, p), (r, s, p)


def test_residual_pairs_match_the_chain():
    # the pairs of the residual digit rule, against the chain of x+y on the
    # r*s monomials of F_p[x,y]/(x^r, y^s)
    residual = [
        (r, s, p)
        for p in (3, 5, 7)
        for r in range(2, 21)
        for s in range(r, 21)
        if _residual(r, s, p)
    ]
    assert len(residual) == 177
    for r, s, p in residual:
        assert dict(_pair(r, s, p)) == _chain_pair(r, s, p), (r, s, p)


def _term(n, powers):
    exps = [0] * n
    for i, a in powers.items():
        exps[i] = a
    return tuple(exps)


def rand_split(rng, p, n):
    """Random f on disjoint sets of variables, some of them left unused.

    Each component is a monomial, a polynomial in one variable or one in
    two variables that does not split.
    """
    free = list(range(n))
    rng.shuffle(free)
    terms = {}
    while free and (not terms or rng.random() < 0.6):
        kind = rng.choice(("monomial", "one", "two")[: 2 + (len(free) > 1)])
        if kind == "monomial":
            used = [free.pop() for _ in range(rng.randint(1, min(2, len(free))))]
            exps = _term(n, {i: rng.randint(1, 3) for i in used})
            terms[exps] = rng.randint(1, p - 1)
        elif kind == "one":
            i = free.pop()
            for a in rng.sample(range(1, 5), rng.randint(1, 3)):
                terms[_term(n, {i: a})] = rng.randint(1, p - 1)
        else:
            i, j = free.pop(), free.pop()
            terms[_term(n, {i: rng.randint(1, 2), j: rng.randint(1, 2)})] = 1
            terms[_term(n, {i: rng.randint(2, 3)})] = rng.randint(1, p - 1)
            if rng.random() < 0.5:
                terms[_term(n, {j: rng.randint(2, 4)})] = rng.randint(1, p - 1)
    return SparsePoly(p, n, terms)


def test_jordan_type_matches_the_chain_random():
    # the split, the closed forms and the pair rule against the chain on
    # all of A; both free ranks read the same dims
    plan = (
        [(2, 1, 3)] * 6 + [(2, 2, 3)] * 6 + [(3, 1, 3)] * 8 + [(3, 2, 2)] * 6
        + [(3, 2, 3)] * 4 + [(5, 1, 3)] * 6 + [(5, 2, 2)] * 4
    )
    rng = random.Random(2026)
    routes = Counter()
    for p, e, n in plan:
        b = FrobBasis(p, e, n)
        f = rand_split(rng, p, n)
        dims = chain_dims(f, b)
        assert jordan_type(f, b) == _blocks(dims)
        assert free_rank_uv(f, b) == b.size + 2 * sum(dims[1:])
        if p > 2:
            half = (b.q - 1) // 2
            padded = dims + [0] * b.q
            assert free_rank_z2(f, b) == padded[half] + padded[half + 1]
        parts, unused = hypersurface._components(f, b.q)
        chains = [g for g, gamma in parts if gamma is None]
        routes["unused variable"] += unused > 0
        routes["one variable"] += sum(g.n == 1 for g, _ in parts)
        routes["monomial"] += sum(g.n > 1 and g.is_monomial() for g, _ in parts)
        routes["chain"] += len(chains)
        routes["split"] += len(parts) > 1
        # free_rank_z2's fork: one component, and that one needs the chain
        routes["z2 by squaring"] += p > 2 and len(parts) == len(chains) == 1
    assert len(routes) == 6 and min(routes.values()) > 0, routes


def test_free_rank_uv_reaches_e4_by_the_chain():
    # the twin of test_free_rank_uv_reaches_e4: the chain on all 6561
    # monomials of A, where the free rank itself reads a closed form
    md = MonomialData((2, 1))
    b = FrobBasis(3, 4, 2)
    f = md.poly(3)
    assert free_rank_uv(f, b) == b.size + 2 * sum(chain_dims(f, b)[1:])


def test_diagonal_f_needs_no_chain():
    # the chain on the 15625 monomials of A takes seconds; its answer.  The
    # e = 4 values are those an elimination over F_p[t] gave for each pair
    start = time.monotonic()
    b = FrobBasis(5, 3, 2)
    assert free_rank_uv(parse_poly("x1^2+x2^3", 5, 2), b) == 1120657
    b = FrobBasis(5, 4, 2)
    f = parse_poly("x1^2+x2^3", 5, 2)
    assert (free_rank_uv(f, b), free_rank_z2(f, b)) == (140080721, 130209)
    assert time.monotonic() - start < 1.0


def test_diagonal_f_reaches_e5():
    # it needs a pair (r, s) with r = 1042 that no digit rule decides, read
    # from r + s dimensions; the blocks of lambda must fill dim A = q^2
    start = time.monotonic()
    b = FrobBasis(5, 5, 2)
    f = parse_poly("x1^2+x2^3", 5, 2)
    assert (free_rank_uv(f, b), free_rank_z2(f, b)) == (17510085913, 3255209)
    assert time.monotonic() - start < 2.0
    lam = jordan_type(f, b)
    assert sum(count * size for size, count in lam.items()) == b.q ** 2


def _as_terms(m):
    """A matrix with its ring forgotten: its shape and the terms of its entries."""
    return m.rows, m.cols, [{i: g.terms for i, g in col.items()} for col in m.data]


def _names_of(m):
    """The names of m and of every entry of m, which must agree."""
    names = {g.names for col in m.data for g in col.values()}
    assert names <= {m.names}, names
    return m.names


@pytest.mark.parametrize("names", [("y1",), ("y1", "y2")])
def test_results_live_in_the_ring_of_f(names):
    # a basis is (p, e, n); what is built from f takes f's variable names,
    # extended by u, v, z or x_{n+1}, and agrees with the x-named f
    p, n = 3, len(names)
    b = FrobBasis(p, 1, n)
    f_x = parse_poly("x1^2 + x1" if n == 1 else "x1^2 + x1*x2 + x2^3", p, n)
    f_y = SparsePoly(p, n, f_x.terms, names)
    assert f_x != f_y and f_y == SparsePoly(p, n, f_x.terms, names)
    for build in (
        lambda f: matrix_of_relations(f, b),
        lambda f: matrix_power(f, 2, b),
        lambda f: block_assemble([f, f * f], b),
    ):
        m_x, m_y = build(f_x), build(f_y)
        assert _names_of(m_x)[:n] == default_names(n)
        assert _names_of(m_y) == names + _names_of(m_x)[n:]
        assert _as_terms(m_y) == _as_terms(m_x)
    assert block_assemble([f_y], b).names == names + (f"x{n + 1}",)
    coords_x = frobenius_decompose(f_x * f_x, b)
    coords_y = frobenius_decompose(f_y * f_y, b)
    assert {i: g.names for i, g in coords_y.items()} == dict.fromkeys(coords_x, names)
    assert {i: g.terms for i, g in coords_y.items()} == {
        i: g.terms for i, g in coords_x.items()
    }
    mf = presentation_fk(f_y, 1, b)
    assert (_names_of(mf.phi), _names_of(mf.psi), mf.f) == (names, names, f_y)
    assert verify_matfac(mf.phi, mf.psi, f_y)
    mf_x = presentation_fk(f_x, 1, b)
    assert not verify_matfac(mf_x.phi, mf_x.psi, f_y)
    uv_x, uv_y = uv_decomposition(f_x, b), uv_decomposition(f_y, b)
    assert uv_y.to_json() == uv_x.to_json()
    for block in uv_y.blocks:
        assert _names_of(block.matfac.phi) == names + ("u", "v")
        assert block.matfac.f.names == names + ("u", "v")
    z2_x, z2_y = z2_presentation(f_x, b), z2_presentation(f_y, b)
    assert z2_y.to_json() == z2_x.to_json()
    assert _names_of(z2_y.matfac.psi) == names + ("z",)
    assert z2_y.matfac.f.names == names + ("z",)
    assert jordan_type(f_y, b) == jordan_type(f_x, b)
    assert free_rank_uv(f_y, b) == free_rank_uv(f_x, b)
    assert free_rank_z2(f_y, b) == free_rank_z2(f_x, b)


@pytest.mark.parametrize(
    "text, n",
    [("x1^2+x2^3", 2), ("x1^2*x2", 2), ("x1^2+x1*x2+x2^3", 2), ("x1^2", 1)],
    ids=["split", "closed-form", "single-chain", "one-variable"],
)
def test_free_ranks_split_f_once(monkeypatch, text, n):
    calls = []
    split = hypersurface._components

    def counted(f, *args):
        calls.append(f)
        return split(f, *args)

    monkeypatch.setattr(hypersurface, "_components", counted)
    f, b = parse_poly(text, 3, n), FrobBasis(3, 2, n)
    for free_rank in (free_rank_uv, free_rank_z2):
        calls.clear()
        free_rank(f, b)
        assert len(calls) == 1, free_rank.__name__


@pytest.mark.parametrize(
    "text, n, powers, chains, rank",
    [
        ("x1^2+x1*x2+x2^3", 2, 1, 0, 313),
        ("x1^2+x1*x2", 3, 1, 0, 7825),
        ("x1^2+x1*x2+x3^2", 3, 0, 1, 10425),
        ("x1^2*x2", 2, 0, 0, 13),
        ("x1^2+x2^3", 2, 0, 0, 209),
    ],
    ids=["one-chain", "one-chain-unused", "split-chain", "monomial", "split-closed"],
)
def test_free_rank_z2_squares_only_one_chain_component(
    monkeypatch, text, n, powers, chains, rank
):
    # free_rank_z2 forms f^((q-1)/2) in A exactly when f is one component
    # that needs the chain, and otherwise reads the Jordan type, walking a
    # chain only for each component that has no closed form; free_rank_uv
    # always reads the Jordan type, so walks the chain that z2 squared
    calls = Counter()
    power, walk = hypersurface._Artinian.power, hypersurface.chain_dims

    def counted_power(self, *args):
        calls["power"] += 1
        return power(self, *args)

    def counted_walk(*args):
        calls["chain"] += 1
        return walk(*args)

    monkeypatch.setattr(hypersurface._Artinian, "power", counted_power)
    monkeypatch.setattr(hypersurface, "chain_dims", counted_walk)
    f, b = parse_poly(text, 5, n), FrobBasis(5, 2, n)
    assert free_rank_z2(f, b) == rank
    assert (calls["power"], calls["chain"]) == (powers, chains)
    calls.clear()
    free_rank_uv(f, b)
    assert (calls["power"], calls["chain"]) == (0, powers + chains)


@pytest.mark.parametrize(
    "text, n",
    [("x1^2+x2^3", 2), ("x1^2*x2", 2), ("x1^2+x1*x2+x2^3", 2), ("x1^2", 1)],
    ids=["split", "closed-form", "single-chain", "one-variable"],
)
def test_cli_prices_the_plan_that_runs(monkeypatch, capsys, text, n):
    # the CLI makes no split of its own: each e of a call makes the one
    # split its free rank runs, recorded as (f, q), and the work meter
    # counts what that split runs; a budget of e = 2's count admits e = 2
    # of a sweep and cuts the sweep at e = 3
    made = []
    split = hypersurface._components

    def make(f, q):
        made.append((f, q))
        return split(f, q)

    monkeypatch.setattr(hypersurface, "_components", make)
    f = parse_poly(text, 3, n)
    for target in ("uv", "z2"):
        argv = ["--type", target, "--f", text, "--p", "3"]
        for call, es in [(["freerank", *argv, "--e", "2"], [2]),
                         (["fsignature", *argv, "--emax", "2"], [1, 2])]:
            made.clear()
            assert cli.main(call) == 0, call
            assert made == [(f, 3 ** e) for e in es], call
            out = capsys.readouterr().out
        # the sweep's last budget was e = 2's own
        bound = ring.work()
        made.clear()
        call = ["fsignature", *argv, "--emax", "3", "--max-size", str(bound)]
        assert cli.main(call) == 0, call
        assert made == [(f, 3 ** e) for e in (1, 2, 3)], call
        assert capsys.readouterr() == (
            out, f"note: truncating sweep to e <= 2 (size bound {bound})\n")


def _random_connected(rng, p, k):
    """Random f on k >= 2 variables that needs the chain: a path of products
    x_i*x_{i+1} and up to three more terms of degree 2 to 4."""
    terms = {_term(k, {i: 1, i + 1: 1}): rng.randint(1, p - 1) for i in range(k - 1)}
    for _ in range(rng.randint(1, 3)):
        powers = {}
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(k)
            powers[i] = powers.get(i, 0) + rng.randint(1, 2)
        terms[_term(k, powers)] = rng.randint(1, p - 1)
    return SparsePoly(p, k, terms)


def test_power_in_a_by_base_p_digits():
    # g^m in A is the product of g(x^(p^i))^(m_i), each factor reduced mod
    # x^q before it multiplies; it equals g^m formed in S and then reduced.
    # Squaring through all of m took seconds on this 8-term g at q = 169
    g = parse_poly("x1^2+x1*x2+x2^3+2*x1^2*x2+x1*x2^2+3*x1^3+x1^4+x2^4", 13, 2)
    ring = hypersurface._Artinian(FrobBasis(13, 2, 2))
    start = time.monotonic()
    assert ring.power(g, 84) == ring.element(g ** 84)
    assert time.monotonic() - start < 1.0
    rng = random.Random(37)
    for p, e in [(3, 2), (5, 1), (5, 2), (7, 1)]:
        ring = hypersurface._Artinian(FrobBasis(p, e, 2))
        g = _random_connected(rng, p, 2)
        for m in (0, 1, p - 1, p, (p ** e - 1) // 2, p ** e - 1, p ** e, 3 * p ** e):
            assert ring.power(g, m) == ring.element(g ** m), (str(g), p, e, m)


def _dims(lam, q):
    """[d_0, ..., d_q] for d_j = dim f^j A, read from the Jordan type of f on
    A: d_j - d_{j+1} counts the blocks of size > j, and none is longer than q."""
    d = [0] * (q + 1)
    longer = 0
    for j in range(q - 1, -1, -1):
        longer += lam.get(j + 1, 0)
        d[j] = d[j + 1] + longer
    return d


def _contact(rng, f):
    """u * f(phi(x)) for the unit u = c0 + c1*x1 and phi = L(x) + c*x_n^2 e_1,
    L a random matrix in GL_n(F_p): a local automorphism, which keeps the
    ideal (x_1^q, ..., x_n^q) and so the Jordan type of f on A."""
    p, n = f.p, f.n
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(echelon(({j: a for j, a in enumerate(r) if a} for r in rows), p)) == n:
            break
    x = [SparsePoly.variable(i, p, n) for i in range(1, n + 1)]
    phi = [sum((a * xj for a, xj in zip(r, x)), SparsePoly(p, n)) for r in rows]
    phi[0] = phi[0] + x[-1] * x[-1] * rng.randrange(1, p)
    g = SparsePoly(p, n)
    for exps, c in f.terms.items():
        term = SparsePoly.constant(c, p, n)
        for y, a in zip(phi, exps):
            term = term * y ** a
        g = g + term
    return g * (SparsePoly.constant(rng.randrange(1, p), p, n) + x[0] * rng.randrange(p))


def test_identities_hold_across_routes():
    # three identities that any f satisfies, on inputs no frozen value covers:
    # - Frobenius self-similarity d_{pj}(e) = p^n d_j(e-1): f^p = f(x^p), and
    #   A_q is p^n copies of A_{q/p} over F_p[x^p];
    # - contact invariance lambda(u * f o phi) = lambda(f), which sends a
    #   split or closed-form f through the chain on all of A;
    # - the targets agree: free_rank_z2 = d_h + d_{h+1} with h = (q-1)/2, for
    #   one chain component the squaring fork against lambda
    start = time.monotonic()
    texts = [
        ("x1^3+x1^4", 1), ("x1^2*x2", 2), ("x1^2+x2^3", 2), ("x1*x2+x3^2", 3),
        ("x1^2+x1*x2+x2^3", 2), ("x1^3+x1*x2^2+x2^3", 2), ("x1*x2+x2*x3", 3),
        ("x1*x2+x2^3", 3),
    ]
    routes = Counter()
    for text, n in texts:
        for p in (2, 3, 5):
            f = parse_poly(text, p, n)
            parts, unused = hypersurface._components(f, p)
            routes["split"] += len(parts) > 1
            routes["chain"] += sum(gamma is None for _, gamma in parts)
            routes["closed form"] += sum(gamma is not None for _, gamma in parts)
            routes["unused variable"] += unused > 0
            lam = jordan_type(f, FrobBasis(p, 1, n))
            for e in (2, 3):
                q = p ** e
                if q ** n > 5000:
                    break
                b = FrobBasis(p, e, n)
                lam, lam_below = jordan_type(f, b), lam
                d, d_below = _dims(lam, q), _dims(lam_below, q // p)
                for j in range(q // p + 1):
                    assert d[p * j] == p ** n * d_below[j], (text, p, e, j)
                if p > 2:
                    h = (q - 1) // 2
                    assert free_rank_z2(f, b) == d[h] + d[h + 1], (text, p, e)
    assert min(routes.values()) > 0, routes
    # split f at q up to p^6, where the digit rule's residual pairs split at
    # Q >= p^2, with every d_j read from lambda
    for text, n, cases in [
        ("x1^2+x2^3", 2, [(5, 6), (7, 5), (13, 4)]),
        ("x1^3+x2^5", 2, [(7, 5), (11, 4)]),
        ("x1^2+x2^2+x3^2", 3, [(3, 6), (5, 5)]),
    ]:
        for p, e in cases:
            f, q = parse_poly(text, p, n), p ** e
            d = _dims(jordan_type(f, FrobBasis(p, e, n)), q)
            d_below = _dims(jordan_type(f, FrobBasis(p, e - 1, n)), q // p)
            for j in range(q // p + 1):
                assert d[p * j] == p ** n * d_below[j], (text, p, e, j)
    # each f at p = 2, 3, 5 with q < 25 and q^n <= 700, and one at q = 25
    rng = random.Random(1703)
    contact = [
        (text, n, p, max(e for e in (1, 2, 3) if p ** e < 25 and p ** (e * n) <= 700))
        for text, n in texts for p in (2, 3, 5)
    ] + [("x1^2*x2", 2, 5, 2)]
    for text, n, p, e in contact:
        f = parse_poly(text, p, n)
        b = FrobBasis(p, e, n)
        g = _contact(rng, f)
        lam = jordan_type(f, b)
        assert jordan_type(g, b) == lam, (text, str(g), p, e)
        if p > 2:
            h, d = (b.q - 1) // 2, _dims(lam, b.q)
            assert free_rank_z2(g, b) == d[h] + d[h + 1], (str(g), p, e)
    assert time.monotonic() - start < 3.0
