"""Exact F-signature values: closed forms, W-combinatorics, empirical runs.

The closed-form signature of S[[u,v]]/(x^dvec + uv) is a rational built
from the symmetric quantities W_j; the signature of S[[z]]/(x^dvec + z^2)
is 1/2^{n-1} when all exponents are 1 and 0 otherwise.  Empirical
sequences s_e divide exact free ranks by the matching power of p so the
convergence toward the closed form can be checked; ``empirical_sequence``
is the one sweep over e, ended by the open budget or the digit limit
(``ring.check_digits``), which no report passes.  ``closed_form`` picks a
target's formula; the target names, the z2 rule for p, the rule for an
exponent vector and each target's dimension are ``hypersurface``'s.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb

from .hypersurface import (TARGETS, check_exponents, check_nonunit, check_target,
                           free_rank_uv, free_rank_z2, on_variables)
from .ring import FrobBasis, SparsePoly, check_digits, tick


class WTable(namedtuple("WTable", "dvec values")):
    """The values W_0..W_n for an exponent vector.

    W_s sums, over s-element subsets J of the variables, the product of
    (d - d_j) for j in J times d_j for j outside J, with d = max d_j.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.dvec)

    @property
    def d(self) -> int:
        return max(self.dvec)


def w_values(dvec) -> WTable:
    """W_0..W_n, by adding one variable at a time in O(n^2) steps.

    Taken over the variables so far, W_j becomes (d - d_m) W_{j-1} + d_m W_j
    when variable m joins.  ``oracle.w_values_by_subsets`` sums the 2^n subsets
    directly and is the tests' reference.
    """
    dvec = check_exponents(dvec)
    d = max(dvec)
    d_words = 1 + d.bit_length() // 64
    values = [1]
    for dm in dvec:
        # half a unit (0.2 us) a multiply-add, three quarters unless dm = d,
        # and one for each 64 products of words of W and of d
        bits = sum(v.bit_length() for v in values)
        tick((len(values) * (2 + (dm < d)) + d_words * bits // 1024) // 4)
        padded = [0, *values, 0]
        values = [
            (d - dm) * padded[j] + dm * padded[j + 1] for j in range(len(values) + 1)
        ]
    return WTable(dvec=dvec, values=tuple(values))


def fsignature_uv_closed(dvec) -> Fraction:
    """Closed-form F-signature of S[[u,v]]/(x^dvec + uv).

    Equals (2/d^{n+1}) * sum_{j=0}^{n} W_j/(n-j+1); the j=n term is always
    zero since d = max d_j forces W_n = 0, but it is included for the
    identity's sake.
    """
    table = w_values(dvec)
    n, d = table.n, table.d
    total = sum(
        (Fraction(table.values[j], n - j + 1) for j in range(n + 1)), Fraction(0)
    )
    value = Fraction(2, d ** (n + 1)) * total
    if not 0 < value <= 1:
        raise AssertionError("signature out of range (0, 1]")
    return value


def fsignature_z2_closed(dvec) -> Fraction:
    """Closed-form F-signature of S[[z]]/(x^dvec + z^2): 1/2^{n-1} or 0."""
    dvec = check_exponents(dvec)
    n = len(dvec)
    if all(d == 1 for d in dvec):
        return Fraction(1, 2 ** (n - 1))
    return Fraction(0)


def closed_form(dvec, target: str) -> Fraction:
    """Closed-form F-signature of x^dvec + uv (target "uv") or x^dvec + z^2 ("z2")."""
    check_target(target)
    return fsignature_uv_closed(dvec) if target == "uv" else fsignature_z2_closed(dvec)


@lru_cache(maxsize=None)
def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with B_1 = -1/2, by the standard recurrence."""
    if j < 0:
        raise ValueError("index must be non-negative")
    if j == 0:
        return Fraction(1)
    total = Fraction(0)
    for i in range(j):
        total += comb(j + 1, i) * bernoulli(i)
    return -total / (j + 1)


def sum_powers(delta: int, s: int) -> Fraction:
    """Faulhaber evaluation of sum_{r=1}^{delta} r^s.

    (1/(s+1)) * sum_j (-1)^j C(s+1, j) B_j delta^{s+1-j}.
    """
    if delta < 0 or s < 0:
        raise ValueError("arguments must be non-negative")
    total = Fraction(0)
    for j in range(s + 1):
        total += (-1) ** j * comb(s + 1, j) * bernoulli(j) * delta ** (s + 1 - j)
    return total / (s + 1)


def expansion_coefficients(dvec, u_values) -> dict[tuple[int, int], Fraction]:
    """Exact expansion of prod_j (d_j*r + q*(d-d_j)/d + u_j) in (r, q).

    Returns {(i, j): coefficient of r^i q^j}, nonzero coefficients only.
    """
    dvec = tuple(dvec)
    u_values = tuple(Fraction(u) for u in u_values)
    if len(u_values) != len(dvec):
        raise ValueError("one u value per variable required")
    d = max(dvec)
    product = {(0, 0): Fraction(1)}
    for dj, u in zip(dvec, u_values):
        factor = {(1, 0): Fraction(dj), (0, 1): Fraction(d - dj, d), (0, 0): u}
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), a in product.items():
            for (fi, fj), b in factor.items():
                key = (i + fi, j + fj)
                out[key] = out.get(key, 0) + a * b
        product = {key: c for key, c in out.items() if c}
    return product


def expansion_check(dvec, u_values) -> bool:
    """Verify the two-variable expansion underlying the signature formula.

    Expands prod_j (d_j*r + q*(d-d_j)/d + u_j) in (r, q) and asserts: the
    coefficient of r^{n-j} q^j is W_j/d^j, and every remaining coefficient
    of r^c is a polynomial in q of degree at most n-1-c.
    """
    table = w_values(dvec)
    n, d = table.n, table.d
    expanded = expansion_coefficients(table.dvec, u_values)
    for c in range(n + 1):
        j = n - c
        if expanded.get((c, j), 0) != Fraction(table.values[j], d ** j):
            return False
        residual = [qj for (i, qj) in expanded if i == c and qj != j]
        if residual and max(residual) > n - 1 - c:
            return False
    return True


class SignatureReport(
    namedtuple("SignatureReport", "target dvec closed_form empirical",
               defaults=(None, None, ()))
):
    """Closed form (monomial f only) and ``empirical``, (e, s_e) pairs or ()."""

    __slots__ = ()

    @classmethod
    def head(cls, target, dvec) -> "SignatureReport":
        """No s_e yet, with x^dvec's closed form if dvec; its JSON and newline ticked."""
        report = cls(target, dvec, None if dvec is None else closed_form(dvec, target))
        tick(len(json.dumps(report.to_json_dict())) + 1)
        return report

    def gaps(self) -> list:
        closed = self.closed_form
        return [] if closed is None else [(e, abs(s - closed)) for e, s in self.empirical]

    def to_json_dict(self) -> dict:
        out = {"target": self.target}
        if self.dvec is not None:
            out["dvec"] = list(self.dvec)
        if self.closed_form is not None:
            out["closed_form"] = _frac_str(self.closed_form)
        out["empirical"] = [{"e": e, "s": _frac_str(s)} for e, s in self.empirical]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _check_printable(x: Fraction, error=ValueError) -> None:
    check_digits(max(x.numerator, x.denominator, key=abs),
                 "the signature has too many digits to print", error)


def _frac_str(x: Fraction) -> str:
    _check_printable(x)
    return f"{x.numerator}/{x.denominator}"


def empirical_sequence(f: SparsePoly, p: int, e_range, target: str) -> SignatureReport:
    """s_e for e in e_range after the report's head, as far as the report
    prints: the first e must fit the open budget and the digit limit, and a
    later e past either ends it, with ``ring.work()`` past the budget only
    after a budget stop.  ``approximant`` gives s_e past the digit limit."""
    check_target(target, p)
    check_nonunit(f)
    # f = c*x^dvec with every exponent >= 1 has a closed form
    dvec = next(iter(f.terms)) if f.is_monomial() else None
    head = SignatureReport.head(target, dvec if dvec and all(dvec) else None)
    empirical = []
    for e in e_range:
        try:
            s = approximant(f, p, e, target)
            _check_printable(s, ResourceWarning if empirical else ValueError)
        except ResourceWarning:
            if not empirical:
                raise
            break
        empirical.append((e, s))
    return head._replace(empirical=empirical)


def approximant(f: SparsePoly, p: int, e: int, target: str) -> Fraction:
    """s_e, the target's free rank at q = p^e over p^(e*D), where D is the
    dimension of its hypersurface: n+1 for f+uv and n for f+z^2.  Each variable
    f does not use multiplies both by q, so a nonconstant f drops them first."""
    used = {i for exps in f.terms for i, a in enumerate(exps) if a}
    if 0 < len(used) < f.n:
        f = on_variables(f.p, f.terms, used)
    free_rank = free_rank_uv if target == "uv" else free_rank_z2
    rank = free_rank(f, FrobBasis(p, e, f.n))
    s = Fraction(rank, p ** (e * (f.n + TARGETS[target])))
    # its row: 19 + len(str(e)), and each part's digits (1234/4096 > log10 2)
    tick(19 + len(str(e)) + sum((x.bit_length() * 1234 >> 12) + 1
                                for x in (s.numerator, s.denominator)))
    return s
