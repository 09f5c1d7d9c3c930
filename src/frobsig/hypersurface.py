"""The two targets, pushforward presentations of S/f^k, and free ranks.

For a hypersurface f in S = F_p[x_1..x_n] this module declares the two
targets, f+uv in S[[u,v]] and f+z^2 in S[[z]] (p odd), and presents F_*^e
of S/f^k as the cokernel of the pair (M(f^k,e), M(f^{q-k},e)).

Free ranks need only the matrices at the origin, and M(g,e) at the origin is
the matrix of multiplication by g on the Artinian ring
A = F_p[x]/(x_1^q, ..., x_n^q).  So the free ranks are dimensions of the
ideals f^j A, which the Jordan type of multiplication by f on A gives.  f
splits into components on disjoint sets of variables, A into the tensor
product of their rings, and the Jordan type into a sum over pairs of
blocks, each read by a recursion on base-p digits (Han's formula, in
``oracle``, is the tests' check on it).  A component is a closed form when
it is a monomial or has one variable, and otherwise the chain f^j A is
walked on its own variables.  ``_components`` alone splits f and reads
each closed form's Jordan type, once for each free rank.
Only ``ring`` is imported with this module; ``presentation_fk`` imports
``frobenius`` and ``matfac`` when it runs.  The free ranks load neither:
the one piece of the pushforward they need, ``FrobBasis``, is in ``ring``.
The loops here tick ``ring``'s work meter, which refuses only inside a
budget that a caller opened.
"""

from __future__ import annotations

from collections.abc import Iterator

from .ring import FrobBasis, SparsePoly, default_names, digit_power, echelon, tick


# Each target's name and how far the dimension of its hypersurface exceeds n:
# f+uv in S[[u,v]] has dimension n+1, f+z^2 in S[[z]] has dimension n.
TARGETS = {"uv": 1, "z2": 0}


def check_target(target: str, p: int | None = None) -> None:
    """Refuse a name not in TARGETS, and the f+z^2 target at p = 2."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if target == "z2" and p == 2:
        raise ValueError("the f+z^2 target requires p odd")


def check_power_index(k: int, q: int) -> None:
    """Refuse a power index k that is not an integer with 1 <= k <= q-1."""
    if not isinstance(k, int):
        raise ValueError(f"k {k!r} is not an integer")
    if not 1 <= k <= q - 1:
        raise ValueError(f"k must satisfy 1 <= k <= q-1 = {q - 1}")


def check_exponents(dvec) -> tuple[int, ...]:
    """dvec as a tuple, refused unless non-empty with every exponent an integer >= 1."""
    dvec = tuple(dvec)
    if not dvec:
        raise ValueError("exponent vector must be non-empty")
    for d in dvec:
        if not isinstance(d, int):
            raise ValueError(f"exponent vector entry {d!r} is not an integer")
    if any(d < 1 for d in dvec):
        raise ValueError("exponent vector entries must be >= 1")
    return dvec


def check_nonunit(f: SparsePoly) -> None:
    """Refuse f = 0 and any f with f(0) != 0, a unit of the local ring."""
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if f.constant_term():
        raise ValueError("f must vanish at the origin (f(0) != 0 makes f a unit)")


def check_local(f: SparsePoly, basis: FrobBasis) -> None:
    """Refuse f unless it is in the ring of ``basis`` and f(0) = 0."""
    basis.check(f)
    check_nonunit(f)


class _Artinian:
    """A = F_p[x]/(x_1^q, ..., x_n^q) on the monomial basis of ``basis``.

    An element is a sparse dict {basis index: coefficient in [1, p)}.  The
    product x^i * x^j is x^(i+j) unless some exponent reaches q, that is
    unless adding i and j in base q carries; each carry lowers the base-q
    digit sum of i + j by q - 1, so a table of digit sums decides it.
    """

    def __init__(self, basis: FrobBasis):
        self.basis = basis
        self.p = basis.p
        q = basis.q
        # the table's 2 q^n digit sums, before it is formed: 0.15 us each
        tick(2 * basis.size)
        digit_sums = [0] * (2 * basis.size - 1)
        for m in range(1, len(digit_sums)):
            digit_sums[m] = digit_sums[m // q] + m % q
        self.digit_sums = digit_sums

    def element(self, f: SparsePoly, twist: int = 1) -> dict[int, int]:
        """f(x^twist) in A: its terms with every exponent below q."""
        q = self.basis.q
        return {
            self.basis.index_of(tuple(a * twist for a in exps)): c
            for exps, c in f.terms.items()
            if max(exps) * twist < q
        }

    def times(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        # about 0.3 us for each product of terms, and for the call itself
        tick(len(u) * len(v) + 2)
        ds = self.digit_sums
        v_terms = [(j, c, ds[j]) for j, c in v.items()]
        out: dict[int, int] = {}
        for i, c_u in u.items():
            d_i = ds[i]
            for j, c_v, d_j in v_terms:
                m = i + j
                if d_i + d_j == ds[m]:
                    out[m] = out.get(m, 0) + c_u * c_v
        p = self.p
        return {m: c % p for m, c in out.items() if c % p}

    def power(self, g: SparsePoly, m: int) -> dict[int, int]:
        """g^m in A by ``ring.digit_power``, each twist g(x^(p^i)) reduced mod x^q."""
        return digit_power(m, self.p, {0: 1}, lambda t: self.element(g, t), self.times)

    def image(self, rows, g: dict[int, int]) -> dict[int, dict[int, int]]:
        """Echelon basis of g * V, where the elements ``rows`` span V."""
        return echelon((self.times(row, g) for row in rows), self.p)

    def monomials(self) -> Iterator[dict[int, int]]:
        """The monomial basis of A, which spans A."""
        return ({i: 1} for i in range(self.basis.size))


def chain_dims(f: SparsePoly, basis: FrobBasis) -> list[int]:
    """[dim f^j A for j = 0, 1, ...], up to the last nonzero one.

    The chain A > fA > f^2A > ... is walked by multiplying an echelon basis
    of f^{j-1} A by f; it reaches 0 by j = q, since f^q = f(x^q) = 0 in A.
    """
    check_local(f, basis)
    ring = _Artinian(basis)
    f_a = ring.element(f)
    dims = [basis.size]
    span = ring.image(ring.monomials(), f_a)
    while span:
        dims.append(len(span))
        span = ring.image(span.values(), f_a)
    return dims


def _components(f: SparsePoly, q: int):
    """f's terms in A grouped by connected sets of variables, and the rest.

    Two variables are joined when some term holds both; a term with an
    exponent of at least q is 0 in A and is dropped.  Returns each
    component as ``(g, lam)``, g a polynomial in its own variables and lam
    its Jordan type read in closed form or None for the chain, and the
    count of variables that no component uses.
    """
    groups: list[tuple[set[int], dict]] = []
    for exps, c in f.terms.items():
        if max(exps) >= q:
            continue
        used = {i for i, a in enumerate(exps) if a}
        terms = {exps: c}
        apart = []
        for group in groups:
            if group[0] & used:
                used |= group[0]
                terms.update(group[1])
            else:
                apart.append(group)
        groups = apart + [(used, terms)]
    parts = [on_variables(f.p, terms, used) for used, terms in groups]
    return ([(g, _closed_form_type(g, q)) for g in parts],
            f.n - sum(len(used) for used, _ in groups))


def on_variables(p: int, terms: dict, used) -> SparsePoly:
    """``terms``, which use only the variables ``used``, over F_p in those alone."""
    idx = sorted(used)
    return SparsePoly._raw(p, len(idx), default_names(len(idx)),
                           {tuple(exps[i] for i in idx): c for exps, c in terms.items()})


def _closed_form_type(g: SparsePoly, q: int):
    """The Jordan type of g on its own A, or None when g needs the chain.

    g of one variable is x^m times a unit, m its order: x^i, x^(i+m), ...
    is a block for each i < m, so q mod m blocks have size ceil(q/m) and the
    rest floor(q/m).  A monomial c*x^gamma in k >= 2 variables has
    d_j = dim g^j A = prod_i max(q - j*gamma_i, 0), since g^j A is spanned
    by the x^a with j*gamma_i <= a_i < q, and its type is read from them.
    """
    if g.n == 1:
        m = min(exps[0] for exps in g.terms)
        # 0.3 us for the division, for each 64-bit word of q
        tick(2 * (1 + q.bit_length() // 64))
        size, longer = divmod(q, m)
        return {s: k for s, k in ((size, m - longer), (size + 1, longer)) if k}
    if not g.is_monomial():
        return None
    (gamma,) = g.terms
    # d_j > 0 exactly while j * max(gamma) < q; 0.3 us for each d_j and
    # each of its k factors, for each 64-bit word of q
    count = (q - 1) // max(gamma) + 1
    tick(count * (1 + len(gamma)) * (1 + q.bit_length() // 64))
    dims = [1] * count
    for a in gamma:
        dims = [d * (q - j * a) for j, d in enumerate(dims)]
    return _blocks(dims)


def _blocks(dims) -> dict[int, int]:
    """Jordan type from d_j = dim T^j: d_{s-1} - 2d_s + d_{s+1} blocks of size s."""
    # about 0.2 us for each d_j
    tick(len(dims))
    d = [*dims, 0, 0]
    lam = {}
    for s in range(1, len(dims) + 1):
        count = d[s - 1] - 2 * d[s] + d[s + 1]
        if count:
            lam[s] = count
    return lam


def _cg(a: int, b: int) -> range:
    """The block sizes of J_a (x) J_b in characteristic 0, each once."""
    return range(abs(a - b) + 1, a + b, 2)


def _pair(r: int, s: int, p: int, memo=None) -> tuple[tuple[int, int], ...]:
    """Jordan type of x+y on F_p[x,y]/(x^r, y^s), as sorted (size, count).

    The modular Clebsch-Gordan problem (Renaud, J. Algebra 1979; Glasby,
    Praeger and Xia, "Jordan partitions", 2015), by a recursion on base-p
    digits with P = ``big`` the least power of p >= r.  Past P,
    (x+y)^P = x^P + y^P shifts the blocks of a smaller pair by multiples of
    P.  Below P, r+s-P blocks have size P and the rest reflect to the pair
    (P-s, P-r).  What is left, r <= s and r+s <= P, splits r = aQ + r0 and
    s = bQ + s0 with Q = P/p: with CG(a, b) the sizes of J_a (x) J_b in
    characteristic 0, each block t of (r0, s0) gives (c-1)Q + t for c in
    CG(a+1, b+1), each block t of (Q-r0, Q-s0) gives (c+1)Q - t for c in
    CG(a, b), and |s0-r0| blocks have size cQ for c in CG(a, b+1), or in
    CG(a+1, b) when r0 > s0.  At P = p this is characteristic 0.
    ``memo`` maps each (r, s) with r <= s met so far to its type; one
    Jordan type shares it across its pairs of blocks.
    """
    if r > s:
        r, s = s, r
    if r == 0:
        return ()
    if r == 1:
        return ((s, 1),)
    if memo is None:
        memo = {}
    if (r, s) in memo:
        return memo[r, s]
    big = p
    while big < r:
        big *= p
    # once the smaller pairs are read, each miss ticks the sizes it forms:
    # about 0.4 us each
    if s >= big:
        c, s1 = divmod(s, big)
        blocks = _pair(r, s1, p, memo)
        tick(1 + len(blocks))
        sizes = [(size + c * big, count) for size, count in blocks]
        sizes.append((c * big, max(r - s1, 0)))
    elif r + s > big:
        blocks = _pair(big - s, big - r, p, memo)
        tick(1 + len(blocks))
        sizes = [*blocks, (big, r + s - big)]
    else:
        small = big // p
        a, r0 = divmod(r, small)
        b, s0 = divmod(s, small)
        low, high = _pair(r0, s0, p, memo), _pair(small - r0, small - s0, p, memo)
        tick((a + 1) * (len(low) + 1) + a * len(high))
        up, down = _cg(a + 1, b + 1), _cg(a, b)
        sizes = [((c - 1) * small + t, k) for t, k in low for c in up]
        sizes += [((c + 1) * small - t, k) for t, k in high for c in down]
        extra = _cg(a, b + 1) if s0 >= r0 else _cg(a + 1, b)
        sizes += [(c * small, abs(s0 - r0)) for c in extra]
    out: dict[int, int] = {}
    for size, count in sizes:
        out[size] = out.get(size, 0) + count
    memo[r, s] = tuple(sorted((size, k) for size, k in out.items() if k))
    return memo[r, s]


def jordan_type(f: SparsePoly, basis: FrobBasis) -> dict[int, int]:
    """Jordan type of multiplication by f on A, as {block size: count}.

    Each component of f gives its type, read in closed form or from the
    chain's d_j = dim g^j A on its own variables.  A = A_I (x) A_J for
    disjoint I and J, and f = g + h acts as g(x)1 + 1(x)h, so the types
    combine by summing the type of x+y on F_p[x,y]/(x^a, y^b) over pairs of
    blocks (a, b).  A variable f does not use gives q blocks of size 1, and
    x+y on (a, 1) is one block of size a: it multiplies every count by q.
    """
    check_local(f, basis)
    return _jordan_type(*_components(f, basis.q), basis)


def _jordan_type(parts, unused: int, basis: FrobBasis) -> dict[int, int]:
    """The Jordan type of f on A from f's split ``parts`` and ``unused``."""
    q = basis.q
    lam = {1: 1}
    memo = {}
    for g, mu in parts:
        if mu is None:
            mu = _blocks(chain_dims(g, FrobBasis(basis.p, basis.e, g.n)))
        out: dict[int, int] = {}
        for a, count_a in lam.items():
            for b, count_b in mu.items():
                blocks = _pair(a, b, basis.p, memo)
                # each size it adds: about 0.15 us
                tick(len(blocks))
                for size, count in blocks:
                    out[size] = out.get(size, 0) + count_a * count_b * count
        lam = out
    scale = q ** unused
    return {size: count * scale for size, count in lam.items()}


def presentation_fk(f: SparsePoly, k: int, basis: FrobBasis):
    """The pair (M(f^k,e), M(f^{q-k},e)) as a ``matfac.MatFac``; its
    product M(f^q,e) is f*I.

    Its cokernel presents F_*^e(S/f^k S).  Units of the local ring pass.
    """
    from .frobenius import matrix_power
    from .matfac import MatFac

    check_power_index(k, basis.q)
    basis.check(f)
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonzero and nonconstant")
    phi = matrix_power(f, k, basis)
    psi = matrix_power(f, basis.q - k, basis)
    return MatFac(phi, psi, f)


def free_rank_uv(f: SparsePoly, basis: FrobBasis) -> int:
    """Free rank of F_*^e(S[[u,v]]/(f+uv)): q^n + 2 * sum_{j=1}^{q-1} dim f^j A.

    The count of trivial (f,1) summands of (M(f^k,e), M(f^{q-k},e)) is the
    rank of M(f^{q-k},e) at the origin, which is dim f^{q-k} A.  A block of
    size s adds max(s-j, 0) to dim f^j A, so 2 * (s-1)s/2 to the sum.
    """
    lam = jordan_type(f, basis)
    return basis.size + sum(count * s * (s - 1) for s, count in lam.items())


def free_rank_z2(f: SparsePoly, basis: FrobBasis) -> int:
    """Free rank of F_*^e(S[[z]]/(f+z^2)): dim f^{(q-1)/2} A + dim f^{(q+1)/2} A.

    Equals t + r for the pair (M(f^{(q-1)/2},e), M(f^{(q+1)/2},e)): the
    sum of their ranks at the origin, read from the Jordan type of f.  When
    f is one component that needs the chain, g = f^{(q-1)/2} is instead
    formed in A, and one more step gives f^{(q+1)/2} A: that is cheaper
    than walking (q+1)/2 chain steps, each an elimination over all of
    f^{j-1} A.
    """
    check_target("z2", basis.p)
    check_local(f, basis)
    parts, unused = _components(f, basis.q)
    half = (basis.q - 1) // 2
    if len(parts) == 1 and parts[0][1] is None:
        # on the component's own variables; each unused one multiplies by q
        ((g, _),) = parts
        ring = _Artinian(FrobBasis(basis.p, basis.e, g.n))
        g_span = ring.image(ring.monomials(), ring.power(g, half))
        f_span = ring.image(g_span.values(), ring.element(g))
        return (len(g_span) + len(f_span)) * basis.q ** unused
    # a block of size s > half adds s - half and s - half - 1
    lam = _jordan_type(parts, unused, basis)
    return sum(count * (2 * (s - half) - 1) for s, count in lam.items() if s > half)
