"""Sparse multivariate polynomial arithmetic over a prime field F_p.

Polynomials live in F_p[x_1, ..., x_n] and are stored as a mapping from
exponent tuples to nonzero coefficients in [1, p).  All values are immutable
after construction and every operation returns a new polynomial in sparse
normal form: no zero coefficients stored, exponent tuples pairwise distinct.
The names ``u``, ``v`` and ``z`` are reserved for the auxiliary variables of
the f+uv and f+z^2 constructions and are rejected by the parser.
Which ring a polynomial or a matrix lives in is decided here alone, by
``same_ring`` and by ``extended_names``, the rule for adding variables; so
are a text's variable count (``variable_count``) and the digit limit (``check_digits``).
The work meter is here too: every route counts its work with ``tick``,
which refuses it past the budget a caller opened with ``open_budget``.
:class:`FrobBasis` is the monomial basis of the Frobenius pushforward
F_*^e(S); it lives here, not in ``frobenius``, so that the free ranks,
which need the basis and no matrix, load no more than this module.
:func:`echelon` reduces sparse rows over F_p; the free ranks and the rank
at the origin both rest on it.
"""

from __future__ import annotations

import re
import sys
from typing import Iterator

RESERVED_NAMES = ("u", "v", "z")


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.

    Raises ValueError for m at or above 3.3 * 10^24 with no prime factor
    up to 41, where these bases no longer certify the answer.
    """
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    if m >= _MR_LIMIT:
        raise ValueError(
            f"modulus {m} is too large to certify as prime (limit {_MR_LIMIT})"
        )
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not a prime number")


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def ring_names(n: int, names=None) -> tuple[str, ...]:
    """The n variable names of a ring: ``names`` as a tuple, or x1..xn.

    Refuses a count other than n and a repeated name, so that no two
    variables print alike.
    """
    if names is None:
        return default_names(n)
    names = tuple(names)
    if len(names) != n:
        raise ValueError("names length does not match variable count")
    if len(set(names)) != n:
        repeat = next(a for i, a in enumerate(names) if a in names[:i])
        raise ValueError(f"variable {repeat!r} named twice")
    return names


def same_ring(a, b) -> bool:
    """Whether polynomials or matrices a and b lie over one F_p[names]."""
    return a.p == b.p and a.n == b.n and a.names == b.names


def check_same_ring(a, b) -> None:
    if not same_ring(a, b):
        raise ValueError(
            f"mismatched ambient rings: F_{a.p}{list(a.names)} "
            f"vs F_{b.p}{list(b.names)}"
        )


def extended_names(names: tuple[str, ...], new) -> tuple[str, ...]:
    """``new`` as a tuple; it must be ``names`` followed by fresh variables."""
    new = tuple(new)
    if new[: len(names)] != names:
        raise ValueError("extension names must start with existing names")
    for i in range(len(names), len(new)):
        if new[i] in new[:i]:
            raise ValueError(f"variable {new[i]!r} already in the ring")
    return new


def check_digits(value: int | None, what: str, error=ValueError) -> None:
    """Raise ``error``, naming the limit, for an integer int() and str() refuse.

    They stop at ``sys.get_int_max_str_digits()`` digits (4300 by default);
    the limit stays as it is.  None stands for a text int() has refused.
    """
    limit = sys.get_int_max_str_digits()
    if value is None or limit and abs(value) >= 10 ** limit:
        raise error(f"{what} (limit {limit})")


# -- the work meter ------------------------------------------------------------

_work = 0  # units ticked since the last budget opened
_bound = None  # the open budget, or None


def tick(units: int) -> None:
    """Count ``units`` of work; past the open budget, raise ResourceWarning.

    Each site ticks once per call or per row, where it can before the work
    it counts, with one constant weight that keeps a unit under about 0.6
    microseconds.  With no budget open nothing is refused.
    """
    global _work
    _work += units
    if _bound is not None and _work > _bound:
        raise ResourceWarning(f"computation passed its bound of {_bound} units of work")


def open_budget(bound: int) -> None:
    """Start a new count, refused past ``bound`` units until ``close_budget``."""
    global _work, _bound
    _work, _bound = 0, bound


def close_budget() -> None:
    """Refuse nothing more; ``work()`` still reads the count."""
    global _bound
    _bound = None


def work() -> int:
    """The units ticked since the last budget opened."""
    return _work


def parse_int(text: str, error=ValueError) -> int:
    """int(text); a well-formed integer int() refuses has too many digits."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):
            raise
    check_digits(None, f"integer {text.strip()[:20]}... has too many digits", error)


class SparsePoly:
    """Element of F_p[x_1, ..., x_n] in sparse normal form."""

    __slots__ = ("p", "n", "names", "terms")

    def __init__(self, p, n, terms=None, names=None):
        check_prime(p)
        if n < 0:
            raise ValueError("variable count must be non-negative")
        self.p = p
        self.n = n
        self.names = ring_names(n, names)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(a < 0 for a in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = coeff % p
            if c:
                clean[exps] = (clean.get(exps, 0) + c) % p
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def _raw(cls, p, n, names, terms) -> "SparsePoly":
        # internal fast path: caller guarantees normal form
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.names = names
        self.terms = terms
        return self

    @classmethod
    def zero(cls, p, n, names=None) -> "SparsePoly":
        return cls(p, n, {}, names)

    @classmethod
    def one(cls, p, n, names=None) -> "SparsePoly":
        return cls(p, n, {(0,) * n: 1}, names)

    @classmethod
    def constant(cls, c, p, n, names=None) -> "SparsePoly":
        return cls(p, n, {(0,) * n: c}, names)

    @classmethod
    def monomial(cls, exps, p, n, coeff=1, names=None) -> "SparsePoly":
        return cls(p, n, {tuple(exps): coeff}, names)

    @classmethod
    def variable(cls, i, p, n, names=None) -> "SparsePoly":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(p, n, {exps: 1}, names)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        check_same_ring(self, other)
        p = self.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return SparsePoly._raw(p, self.n, self.names, out)

    def __neg__(self) -> "SparsePoly":
        p = self.p
        return SparsePoly._raw(
            p, self.n, self.names, {e: p - c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            return self.scale(other)
        check_same_ring(self, other)
        # a term product costs about 1 us and 0.2 more for each variable
        tick(len(self.terms) * len(other.terms) * (self.n + 2))
        p = self.p
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        clean = {}
        for e, c in out.items():
            c %= p
            if c:
                clean[e] = c
        return SparsePoly._raw(p, self.n, self.names, clean)

    def __rmul__(self, other) -> "SparsePoly":
        return self.__mul__(other)

    def scale(self, c: int) -> "SparsePoly":
        c %= self.p
        if c == 0:
            return SparsePoly._raw(self.p, self.n, self.names, {})
        if c == 1:
            return self
        p = self.p
        return SparsePoly._raw(
            p, self.n, self.names, {e: (c * v) % p for e, v in self.terms.items()}
        )

    def __pow__(self, m: int) -> "SparsePoly":
        """self^m, the product of self(x^(p^i))^(m_i) over the base-p digits m_i.

        Over F_p, g^p = g(x^p): each exponent is multiplied by p and each
        coefficient kept.  Squaring runs only inside one digit m_i < p, so no
        power formed has more terms than prod_i C(m_i + t - 1, t - 1) for g
        of t terms; squaring through all of m would form g^(2^j), far larger.
        """
        if m < 0:
            raise ValueError("negative exponent")
        p = self.p
        result = SparsePoly.one(p, self.n, self.names)
        frobenius = self
        while m:
            m, digit = divmod(m, p)
            base = frobenius
            while digit:
                if digit & 1:
                    result = result * base
                digit >>= 1
                if digit:
                    base = base * base
            if m:
                frobenius = SparsePoly._raw(p, self.n, self.names, {
                    tuple(a * p for a in e): c for e, c in frobenius.terms.items()
                })
        return result

    # -- predicates and views -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.n: 1}

    def is_constant(self) -> bool:
        return all(all(a == 0 for a in e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.n, 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and same_ring(self, other)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, self.names, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms in descending lexicographic exponent order (canonical)."""
        return iter(sorted(self.terms.items(), reverse=True))

    # -- ring extension --------------------------------------------------

    def extend(self, names: tuple[str, ...]) -> "SparsePoly":
        """Embed into F_p[names]: our variables followed by fresh ones."""
        names = extended_names(self.names, names)
        pad = (0,) * (len(names) - self.n)
        return SparsePoly._raw(
            self.p,
            len(names),
            names,
            {e + pad: c for e, c in self.terms.items()},
        )

    # -- display ----------------------------------------------------------

    def _term_str(self, exps, coeff) -> str:
        parts = []
        if coeff != 1 or all(a == 0 for a in exps):
            parts.append(str(coeff))
        for name, a in zip(self.names, exps):
            if a == 1:
                parts.append(name)
            elif a > 1:
                parts.append(f"{name}^{a}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_str(e, c) for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"SparsePoly({self!s} over F_{self.p}, n={self.n})"


class FrobBasis:
    """Ordered monomial basis of F_*^e(S), mixed radix with x_1 least significant.

    index(a_1, ..., a_n) = sum_i a_i * q^(i-1), a bijection onto [0, q^n).
    It is (p, e, n) alone: what is built on it from f lives in f's ring.
    """

    __slots__ = ("p", "e", "n", "q", "size", "_radix", "_tuples")

    def __init__(self, p: int, e: int, n: int):
        check_prime(p)
        if e < 1:
            raise ValueError("e must be >= 1")
        if n < 1:
            raise ValueError("variable count must be >= 1")
        # q^n has at least e n (bitlen(p) - 1) bits, counted before q is
        # formed: a sweep reduces a fraction of about that size
        tick(e * n * (p.bit_length() - 1))
        self.p = p
        self.e = e
        self.n = n
        self.q = p ** e
        self.size = self.q ** n
        self._radix = None
        self._tuples = None

    def check(self, f: SparsePoly) -> None:
        """Refuse f unless it is over F_p in n variables."""
        if f.p != self.p or f.n != self.n:
            raise ValueError("polynomial not in the ambient ring of the basis")

    def index_of(self, exps) -> int:
        if len(exps) != self.n or any(not 0 <= a < self.q for a in exps):
            raise ValueError(f"{tuple(exps)} is not a basis exponent tuple")
        return sum(a * r for a, r in zip(exps, self.radix))

    def tuple_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"basis index {index} out of range")
        out = []
        for _ in range(self.n):
            index, a = divmod(index, self.q)
            out.append(a)
        return tuple(out)

    @property
    def radix(self) -> tuple[int, ...]:
        """q^0, ..., q^(n-1), the place values of an index, formed on first
        use: a basis read only for q and q^n never forms them."""
        if self._radix is None:
            self._radix = tuple(self.q ** i for i in range(self.n))
        return self._radix

    @property
    def tuples(self) -> list[tuple[int, ...]]:
        if self._tuples is None:
            self._tuples = [self.tuple_of(i) for i in range(self.size)]
        return self._tuples

    def __repr__(self) -> str:
        return f"FrobBasis(p={self.p}, e={self.e}, n={self.n})"


# -- linear algebra over F_p ------------------------------------------------

def echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """Row echelon form over F_p of a matrix given as sparse rows {col: value}.

    Returns {pivot column: row}: each row is monic at its pivot, the smallest
    column it holds, and no two rows share a pivot.  The rows span the same
    space as the input, so their number is its rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        # about 2 us a row, and 0.2 for each of its entries and of those of
        # each pivot row it subtracts
        units = 12 + len(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: (v * inv) % p for c, v in row.items()}
                break
            units += len(piv)
            factor = row[col]
            for c, v in piv.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        tick(units // 2)
    return pivots


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_]\w*)|([+\-*^])|(\S)")
_VARIABLE_RE = re.compile(r"x(\d+)")


def variable_count(text: str) -> int:
    """The largest K of the variables xK in ``text``, or 0.

    It reads the parser's tokens ("2x1" is 2, then x1) and leaves other
    names and malformed text for ``parse_poly`` to refuse in its own words.
    """
    found = (_VARIABLE_RE.fullmatch(name) for _, name, _, _ in _TOKEN_RE.findall(text))
    return max((parse_int(m.group(1)) for m in found if m), default=0)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        num, name, op, bad = m.groups()
        if bad is not None:
            raise ValueError(f"unexpected character {bad!r} in polynomial")
        if num is not None:
            tokens.append(("int", num))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", op))
    return tokens


def parse_poly(text: str, p: int, n: int) -> SparsePoly:
    """Parse ``text`` into a polynomial over F_p in n variables.

    Grammar: terms joined by ``+`` (a leading or separating ``-`` negates the
    following term); a term is ``*``-separated factors, each an integer
    coefficient or a power ``xK^E`` with 1 <= K <= n.
    """
    check_prime(p)
    # n exponents for each term, every term after the first following a + or
    # -, and about 1 us for each character's share of a token
    tick(n * (1 + text.count("+") + text.count("-")) + 2 * len(text))
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial expression")
    # coefficients summed per exponent tuple; SparsePoly reduces mod p once
    terms: dict[tuple[int, ...], int] = {}
    pos = 0

    def parse_factor(sign_coeff):
        nonlocal pos
        kind, val = tokens[pos]
        if kind == "int":
            pos += 1
            return sign_coeff * parse_int(val), None
        if kind == "name":
            pos += 1
            if val in RESERVED_NAMES:
                raise ValueError(
                    f"variable {val!r} is reserved for ring extensions"
                )
            m = _VARIABLE_RE.fullmatch(val)
            if not m:
                raise ValueError(f"unknown variable {val!r} (expected x1..x{n})")
            idx = parse_int(m.group(1))
            if not 1 <= idx <= n:
                raise ValueError(f"variable index {idx} out of range 1..{n}")
            exp = 1
            if pos < len(tokens) and tokens[pos] == ("op", "^"):
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] != "int":
                    raise ValueError("expected integer exponent after '^'")
                exp = parse_int(tokens[pos][1])
                pos += 1
            return sign_coeff, (idx, exp)
        raise ValueError(f"unexpected token {val!r} in polynomial")

    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            raise ValueError("dangling sign at end of polynomial")
        coeff = sign
        exps = [0] * n
        while True:
            coeff, power = parse_factor(coeff)
            if power is not None:
                idx, e = power
                exps[idx - 1] += e
            if pos < len(tokens) and tokens[pos] == ("op", "*"):
                pos += 1
                if pos >= len(tokens):
                    raise ValueError("dangling '*' at end of polynomial")
                continue
            break
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + coeff
        if pos < len(tokens):
            kind, val = tokens[pos]
            if kind != "op" or val not in "+-":
                raise ValueError(f"expected '+' between terms, found {val!r}")
    return SparsePoly(p, n, terms)

