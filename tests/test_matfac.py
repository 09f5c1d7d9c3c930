import random

import pytest

from frobsig.frobenius import FrobBasis, PolyMatrix, matrix_power
from frobsig.matfac import (
    CHAIN,
    EVEN,
    ODD,
    SPLIT,
    UV,
    MatFac,
    companion_matrix,
    companion_reduce,
    direct_sum,
    maltese,
    rank_mod_p,
    sharp,
    trivial_summand_counts,
    verify_matfac,
)
from frobsig.ring import SparsePoly, parse_poly


def one_by_one(poly):
    return PolyMatrix.from_entries(1, 1, [(0, 0, poly)], poly.p, poly.n, poly.names)


def power_pair(f, k, basis):
    return MatFac(
        matrix_power(f, k, basis), matrix_power(f, basis.q - k, basis), f
    )


def test_verify_power_pair():
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1", 3, 1)
    assert verify_matfac(matrix_power(f, 2, b), matrix_power(f, 1, b), f)


def test_verify_trivial_pair():
    f = parse_poly("x1^2", 3, 1)
    assert verify_matfac(one_by_one(f), one_by_one(SparsePoly.one(3, 1)), f)


def test_verify_rejects_wrong_pair():
    x = parse_poly("x1", 3, 2)
    y = parse_poly("x2", 3, 2)
    assert not verify_matfac(one_by_one(x), one_by_one(y), x * x)
    # building a pair checks nothing; verify_matfac is the check
    mf = MatFac(one_by_one(x), one_by_one(y), x * x)
    assert verify_matfac(mf.phi, mf.psi, mf.f) is False


def test_verify_zero_f_checks_both_orders():
    # phi = E_12, psi = E_11: phi*psi = 0 = f*I but psi*phi = E_12, so with
    # f = 0 the second product must still be checked
    def unit_matrix(i, j):
        return PolyMatrix.from_entries(
            2, 2, [(i, j, SparsePoly.one(3, 1))], 3, 1
        )

    zero = SparsePoly.zero(3, 1)
    assert not verify_matfac(unit_matrix(0, 1), unit_matrix(0, 0), zero)
    assert verify_matfac(unit_matrix(0, 1), unit_matrix(0, 1), zero)


def test_maltese_small():
    x = parse_poly("x1", 3, 1)
    mf = maltese(MatFac(one_by_one(x), one_by_one(x), x * x))
    assert mf.size == 2
    assert str(mf.f) == "x1^2 + u*v"
    assert str(mf.phi.entry(0, 1)) == "2*v"
    assert str(mf.phi.entry(1, 0)) == "u"
    assert str(mf.psi.entry(0, 1)) == "v"
    assert verify_matfac(mf.phi, mf.psi, mf.f)


def test_maltese_rejects_existing_names():
    x = parse_poly("x1", 3, 1)
    mf = maltese(MatFac(one_by_one(x), one_by_one(x), x * x))
    with pytest.raises(ValueError):
        maltese(mf)


def test_maltese_of_trivial_counts():
    # (f, 1) turns into a block pair whose cokernel is one free summand
    f = parse_poly("x1^2", 3, 1)
    mf = maltese(MatFac(one_by_one(f), one_by_one(SparsePoly.one(3, 1)), f))
    counts = trivial_summand_counts(mf)
    assert (counts.t, counts.r) == (1, 1)


def test_sharp_small():
    x = parse_poly("x1", 3, 1)
    mf = sharp(MatFac(one_by_one(x), one_by_one(x), x * x))
    assert str(mf.f) == "x1^2 + z^2"
    assert verify_matfac(mf.phi, mf.psi, mf.f)


def test_sharp_rejects_p2():
    x = parse_poly("x1", 2, 1)
    with pytest.raises(ValueError, match=r"^the f\+z\^2 target requires p odd$"):
        sharp(MatFac(one_by_one(x), one_by_one(x), x * x))


def test_constructions_preserve_verification():
    b = FrobBasis(3, 1, 2)
    f = parse_poly("x1^2 + x1*x2", 3, 2)
    mf = power_pair(f, 1, b)
    m = maltese(mf)
    s = sharp(mf)
    assert verify_matfac(m.phi, m.psi, m.f)
    assert verify_matfac(s.phi, s.psi, s.f)


def test_direct_sum():
    f = parse_poly("x1^2", 3, 1)
    a = MatFac(one_by_one(f), one_by_one(SparsePoly.one(3, 1)), f)
    b = MatFac(one_by_one(SparsePoly.one(3, 1)), one_by_one(f), f)
    both = direct_sum(a, b)
    assert both.size == 2
    counts = trivial_summand_counts(both)
    assert (counts.t, counts.r) == (1, 1)
    x = parse_poly("x1", 3, 1)
    with pytest.raises(ValueError):
        direct_sum(a, MatFac(one_by_one(x), one_by_one(x * x), x ** 3))
    # unequal sizes: (x, 1) of size 1 plus (M(x), M(x^2)) of size 3 over F_3
    small = MatFac(one_by_one(x), one_by_one(SparsePoly.one(3, 1)), x)
    big = power_pair(x, 1, FrobBasis(3, 1, 1))
    mixed = direct_sum(small, big)
    assert mixed.size == 4
    assert verify_matfac(mixed.phi, mixed.psi, x)
    cs, cb, cm = (trivial_summand_counts(m) for m in (small, big, mixed))
    assert (cm.t, cm.r) == (cs.t + cb.t, cs.r + cb.r)


def test_counts_power_pairs():
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1^2", 3, 1)
    c21 = trivial_summand_counts(power_pair(f, 2, b))
    assert (c21.t, c21.r) == (1, 0)
    c12 = trivial_summand_counts(power_pair(f, 1, b))
    assert (c12.t, c12.r) == (0, 1)


def test_counts_additive_over_direct_sum():
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1^2", 3, 1)
    a = power_pair(f, 1, b)
    c = power_pair(f, 2, b)
    total = trivial_summand_counts(direct_sum(a, c))
    ca, cc = trivial_summand_counts(a), trivial_summand_counts(c)
    assert (total.t, total.r) == (ca.t + cc.t, ca.r + cc.r)


def test_counts_invariant_under_unit_triangular_conjugation():
    rng = random.Random(7)
    b = FrobBasis(3, 1, 1)
    f = parse_poly("x1^2", 3, 1)
    mf = power_pair(f, 2, b)
    size = mf.size
    for _ in range(10):
        # random unit upper-triangular U, lower-triangular L with poly entries
        u = PolyMatrix.identity(size, 3, 1)
        l = PolyMatrix.identity(size, 3, 1)
        for i in range(size):
            for j in range(i + 1, size):
                u.set_entry(i, j, SparsePoly((3), 1, {(rng.randint(0, 2),): rng.randint(0, 2)}))
                l.set_entry(j, i, SparsePoly((3), 1, {(rng.randint(0, 2),): rng.randint(0, 2)}))
        # equivalent pair: (U phi L, L^-1 psi U^-1); use the adjoint trick via
        # explicit inverses of unit-triangular matrices
        u_inv = _unit_triangular_inverse(u)
        l_inv = _unit_triangular_inverse(l)
        phi2 = u * mf.phi * l
        psi2 = l_inv * mf.psi * u_inv
        assert verify_matfac(phi2, psi2, f)
        mf2 = MatFac(phi2, psi2, f)
        c1, c2 = trivial_summand_counts(mf), trivial_summand_counts(mf2)
        assert (c1.t, c1.r) == (c2.t, c2.r)


def _unit_triangular_inverse(m):
    size = m.rows
    inv = PolyMatrix.identity(size, m.p, m.n, m.names)
    # Neumann series terminates because (I - M) is nilpotent
    delta = PolyMatrix.identity(size, m.p, m.n, m.names) - m
    term = delta
    while term.entry_count():
        inv = inv + term
        term = term * delta
    return inv


def test_rank_mod_p():
    assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}], 5) == 1
    assert rank_mod_p([{0: 1}, {1: 3}, {0: 2, 1: 1}], 5) == 2
    assert rank_mod_p([{}, {}], 5) == 0


@pytest.mark.parametrize(
    "shape,size,needs",
    [
        (CHAIN, 2, ()),
        (CHAIN, 6, ()),
        (EVEN, 4, ("corner",)),
        (EVEN, 6, ("corner",)),
        (ODD, 5, ("corner", "corner2")),
        (SPLIT, 4, ("corner", "corner2", "k")),
        (UV, 4, ("corner",)),
    ],
)
def test_companion_reduce_verifies(shape, size, needs):
    x = SparsePoly.variable(1, 3, 1)
    kwargs = {}
    if "corner" in needs:
        kwargs["corner"] = x
    if "corner2" in needs:
        kwargs["corner2"] = x
    if "k" in needs:
        kwargs["k"] = size // 2
    red = companion_reduce(shape, size, x, **kwargs)
    assert red.left * red.matrix * red.right == red.reduced
    lf, rf = red.elementary_factors()
    left = PolyMatrix.identity(size, 3, 1)
    for factor in lf:
        left = left * factor
    right = PolyMatrix.identity(size, 3, 1)
    for factor in rf:
        right = right * factor
    assert left == red.left and right == red.right


def test_chain_target_form():
    x = SparsePoly.variable(1, 3, 1)
    for size in (2, 3, 4, 5):
        red = companion_reduce(CHAIN, size, x)
        assert red.verify()
        corner = red.reduced.entry(0, size - 1)
        assert corner == (x ** size).scale((-1) ** (size + 1))
        for i in range(1, size):
            assert red.reduced.entry(i, i - 1).is_one()
        assert red.reduced.entry_count() == size


def test_even_target_form():
    x = SparsePoly.variable(1, 3, 1)
    y = x * x
    for size in (4, 6):
        m = size // 2
        red = companion_reduce(EVEN, size, x, corner=y)
        assert red.verify()
        signed = (x ** m).scale((-1) ** (m - 1))
        assert red.reduced.entry(0, size - 2) == signed
        assert red.reduced.entry(1, size - 1) == signed
        assert red.reduced.entry(0, size - 1) == y


def test_odd_target_form():
    x = SparsePoly.variable(1, 3, 1)
    y = x * x
    for size in (5, 7):
        m = (size - 1) // 2
        red = companion_reduce(ODD, size, x, corner=y, corner2=y)
        assert red.verify()
        assert red.reduced.entry(0, size - 1) == (x ** (m + 1)).scale((-1) ** m)
        assert red.reduced.entry(1, size - 2) == (x ** m).scale((-1) ** (m - 1))
        assert red.reduced.entry(0, size - 2) == y
        assert red.reduced.entry(1, size - 1) == y


def test_split_target_form():
    p = 3
    x = SparsePoly.variable(1, p, 1)
    u = x * x
    v = x ** 3
    for size, k in ((2, 1), (4, 1), (5, 2), (6, 3)):
        m = size - k
        red = companion_reduce(SPLIT, size, x, corner=v, corner2=u, k=k)
        assert red.verify()
        top = size - 2
        assert red.reduced.entry(top, top) == (x ** k).scale((-1) ** (k + 1))
        assert red.reduced.entry(top, top + 1) == v
        assert red.reduced.entry(top + 1, top) == u
        assert red.reduced.entry(top + 1, top + 1) == (x ** m).scale((-1) ** (m + 1))
        for i in range(top):
            assert red.reduced.entry(i, i).is_one()
        assert red.reduced.entry_count() == size + 2


def test_uv_target_form():
    x = SparsePoly.variable(1, 3, 1)
    w = x ** 4  # stands for the product uv
    for size in (2, 3, 5):
        red = companion_reduce(UV, size, x, corner=w)
        assert red.verify()
        top = size - 2
        assert red.reduced.entry(top, top) == (x ** (size - 1)).scale((-1) ** size)
        assert red.reduced.entry(top, top + 1) == w
        assert red.reduced.entry(top + 1, top).is_one()
        assert red.reduced.entry(top + 1, top + 1) == x


def test_companion_rejects_bad_input():
    x = SparsePoly.variable(1, 3, 1)
    with pytest.raises(ValueError):
        companion_matrix("diag", 3, x)
    with pytest.raises(ValueError):
        companion_matrix(CHAIN, 1, x)
    with pytest.raises(ValueError):
        companion_matrix(EVEN, 5, x, corner=x)
    with pytest.raises(ValueError):
        companion_matrix(SPLIT, 4, x, corner=x, corner2=x, k=4)
    with pytest.raises(ValueError):
        companion_matrix(UV, 3, x)


_X3 = SparsePoly.variable(1, 3, 1)
_ARGS = {"corner": _X3 * _X3, "corner2": _X3, "k": 1}
_TAKES = {
    CHAIN: (),
    EVEN: ("corner",),
    ODD: ("corner", "corner2"),
    SPLIT: ("corner", "corner2", "k"),
    UV: ("corner",),
}


def _accepts(build, shape, size, names):
    try:
        build(shape, size, _X3, **{name: _ARGS[name] for name in names})
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("build", [companion_matrix, companion_reduce])
def test_companion_shapes_refuse_what_they_do_not_take(build):
    with pytest.raises(ValueError, match="even shape needs even size >= 4"):
        build(EVEN, 2, _X3, corner=_X3)
    with pytest.raises(ValueError, match="odd shape needs odd size >= 5"):
        build(ODD, 3, _X3, corner=_X3, corner2=_X3)
    for shape, takes in _TAKES.items():
        size = 5 if shape == ODD else 4
        for name in _ARGS:
            names = set(takes) ^ {name}
            verb = "needs" if name in takes else "takes no"
            with pytest.raises(ValueError, match=f"{shape} shape {verb} {name}"):
                build(shape, size, _X3, **{n: _ARGS[n] for n in names})


def test_companion_matrix_and_reduce_accept_the_same_arguments():
    subsets = [(), ("corner",), ("corner", "corner2"), ("corner", "corner2", "k"),
               ("k",), ("corner2",)]
    accepted = 0
    for shape in _TAKES:
        for size in range(1, 9):
            for names in subsets:
                built = _accepts(companion_matrix, shape, size, names)
                assert built == _accepts(companion_reduce, shape, size, names)
                accepted += built
    # chain, split and uv at sizes 2..8, even at 4, 6, 8 and odd at 5, 7
    assert accepted == 3 * 7 + 3 + 2


def test_companion_reduce_records_each_factor_once():
    # uv at size 3: the chain step adds -x1 * row 1 to row 0 and -x1 * col 0
    # to col 1, then rows 0 and 1 swap, recorded as E_01(1) E_10(-1) E_01(1)
    # S_0(-1) at the front of the left factors
    x = SparsePoly.variable(1, 3, 1)
    one = SparsePoly.one(3, 1)
    red = companion_reduce(UV, 3, x, corner=x ** 4)
    assert red.left_ops == [
        (0, 1, one), (1, 0, -one), (0, 1, one), (0, 0, -one), (0, 1, -x),
    ]
    assert red.right_ops == [(0, 1, -x)]
    assert all(
        isinstance(c, SparsePoly) and c.names == x.names
        for _, _, c in red.left_ops + red.right_ops
    )


def test_companion_factors_dilate_only_by_minus_one():
    # over F_2, where -1 = 1, a dilation by -1 would be the identity, so a
    # swap is recorded as its three transvections alone; with b = 0 a chain
    # step that adds 0 times a row or column records nothing
    for p in (5, 3, 2):
        x = SparsePoly.variable(1, p, 2)
        y = SparsePoly.variable(2, p, 2)
        minus_one = -SparsePoly.one(p, 2)
        identity = {size: PolyMatrix.identity(size, p, 2) for size in range(2, 9)}
        kwargs = {"corner": x * y, "corner2": y}
        shapes = 0
        for b in (x, SparsePoly.zero(p, 2)):
            for shape, takes in _TAKES.items():
                for size in range(2, 9):
                    kwargs["k"] = size // 2
                    try:
                        red = companion_reduce(
                            shape, size, b, **{name: kwargs[name] for name in takes}
                        )
                    except ValueError:
                        continue
                    shapes += 1
                    lf, rf = red.elementary_factors()
                    assert len(lf) == len(red.left_ops)
                    assert len(rf) == len(red.right_ops)
                    for i, j, c in red.left_ops + red.right_ops:
                        assert i != j or c == minus_one
                    assert all(factor != identity[size] for factor in lf + rf)
                    for factors, product in ((lf, red.left), (rf, red.right)):
                        m = identity[size]
                        for factor in factors:
                            m = m * factor
                        assert m == product
                    assert red.verify()
        # for each b: chain, split and uv at sizes 2..8, even at 4, 6, 8 and
        # odd at 5, 7
        assert shapes == 2 * (3 * 7 + 3 + 2)


def _reductions():
    """Every shape at sizes 2..12, split at every k, over three rings."""
    for p, n, b_text in ((3, 1, "x1"), (5, 2, "x1+x2"), (2, 2, "x1*x2+x1")):
        b = parse_poly(b_text, p, n)
        corner, corner2 = b * b, SparsePoly.variable(1, p, n)
        for size in range(2, 13):
            yield b, CHAIN, size, {}
            yield b, UV, size, {"corner": corner}
            for k in range(1, size):
                yield b, SPLIT, size, {"corner": corner, "corner2": corner2, "k": k}
            if size % 2 == 0 and size >= 4:
                yield b, EVEN, size, {"corner": corner}
            if size % 2 == 1 and size >= 5:
                yield b, ODD, size, {"corner": corner, "corner2": corner2}


def test_companion_reduce_edits_only_its_own_columns():
    # the reduction edits a copy of the matrix it returns, and the sparse
    # columns of left, right and reduced store no zero
    count = 0
    for b, shape, size, kwargs in _reductions():
        red = companion_reduce(shape, size, b, **kwargs)
        assert red.matrix == companion_matrix(shape, size, b, **kwargs)
        for m in (red.left, red.right, red.reduced):
            assert all(not poly.is_zero() for col in m.data for poly in col.values())
        assert red.verify()
        count += 1
    assert count == 3 * 97
