"""Sparse multivariate polynomial arithmetic over a prime field F_p.

Polynomials live in F_p[x_1, ..., x_n] and are stored as a mapping from
exponent tuples to nonzero coefficients in [1, p).  All values are immutable
after construction and every operation returns a new polynomial in sparse
normal form: no zero coefficients stored, exponent tuples pairwise distinct.
The names ``u``, ``v`` and ``z`` are reserved for the auxiliary variables of
the f+uv and f+z^2 constructions and are rejected by the parser.
"""

from __future__ import annotations

import re
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


class SparsePoly:
    """Element of F_p[x_1, ..., x_n] in sparse normal form."""

    __slots__ = ("p", "n", "names", "terms")

    def __init__(self, p, n, terms=None, names=None):
        check_prime(p)
        if n < 0:
            raise ValueError("variable count must be non-negative")
        self.p = p
        self.n = n
        self.names = tuple(names) if names is not None else default_names(n)
        if len(self.names) != n:
            raise ValueError("names length does not match variable count")
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

    def _check_same_ring(self, other: "SparsePoly") -> None:
        if self.p != other.p or self.n != other.n or self.names != other.names:
            raise ValueError(
                f"mismatched ambient rings: F_{self.p}{list(self.names)} "
                f"vs F_{other.p}{list(other.names)}"
            )

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_same_ring(other)
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
        self._check_same_ring(other)
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
        if m < 0:
            raise ValueError("negative exponent")
        result = SparsePoly.one(self.p, self.n, self.names)
        base = self
        while m:
            if m & 1:
                result = result * base
            base_needed = m >> 1
            if base_needed:
                base = base * base
            m = base_needed
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
            and self.p == other.p
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms in descending lexicographic exponent order (canonical)."""
        return iter(sorted(self.terms.items(), reverse=True))

    # -- ring extension --------------------------------------------------

    def extend(self, names: tuple[str, ...]) -> "SparsePoly":
        """Embed into F_p[names]; ``names`` must start with our variables."""
        names = tuple(names)
        if names[: self.n] != self.names:
            raise ValueError("extension names must start with existing names")
        extra = len(names) - self.n
        if extra < 0:
            raise ValueError("cannot extend to fewer variables")
        pad = (0,) * extra
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


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_]\w*)|([+\-*^])|(\S)")


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


def parse_poly(text: str, p: int, n: int, names=None) -> SparsePoly:
    """Parse ``text`` into a polynomial over F_p in n variables.

    Grammar: terms joined by ``+`` (a leading or separating ``-`` negates the
    following term); a term is ``*``-separated factors, each an integer
    coefficient or a power ``xK^E`` with 1 <= K <= n.
    """
    check_prime(p)
    names = tuple(names) if names is not None else default_names(n)
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial expression")
    result = SparsePoly.zero(p, n, names)
    pos = 0

    def parse_factor(sign_coeff):
        nonlocal pos
        kind, val = tokens[pos]
        if kind == "int":
            pos += 1
            return sign_coeff * int(val), None
        if kind == "name":
            pos += 1
            if val in RESERVED_NAMES:
                raise ValueError(
                    f"variable {val!r} is reserved for ring extensions"
                )
            m = re.fullmatch(r"x(\d+)", val)
            if not m:
                raise ValueError(f"unknown variable {val!r} (expected x1..x{n})")
            idx = int(m.group(1))
            if not 1 <= idx <= n:
                raise ValueError(f"variable index {idx} out of range 1..{n}")
            exp = 1
            if pos < len(tokens) and tokens[pos] == ("op", "^"):
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] != "int":
                    raise ValueError("expected integer exponent after '^'")
                exp = int(tokens[pos][1])
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
        result = result + SparsePoly(p, n, {tuple(exps): coeff}, names)
        if pos < len(tokens):
            kind, val = tokens[pos]
            if kind != "op" or val not in "+-":
                raise ValueError(f"expected '+' between terms, found {val!r}")
    return result

