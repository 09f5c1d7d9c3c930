"""Exact F-signature values: closed forms, W-combinatorics, empirical runs.

The closed-form signature of S[[u,v]]/(x^dvec + uv) is a rational built
from the symmetric quantities W_j; the signature of S[[z]]/(x^dvec + z^2)
is 1/2^{n-1} when all exponents are 1 and 0 otherwise.  Empirical
sequences s_e divide exact free ranks by the matching power of p so the
convergence toward the closed form can be checked at small e.  All
arithmetic is exact rational; no floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from .frobenius import FrobBasis
from .hypersurface import check_nonunit, free_rank_uv, free_rank_z2
from .monomial import MonomialData
from .ring import SparsePoly


@dataclass(frozen=True)
class WTable:
    """The values W_0..W_n for an exponent vector.

    W_s sums, over s-element subsets J of the variables, the product of
    (d - d_j) for j in J times d_j for j outside J, with d = max d_j.
    """

    dvec: tuple[int, ...]
    values: tuple[Fraction, ...]

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
    dvec = tuple(dvec)
    if not dvec:
        raise ValueError("dvec must be non-empty")
    if any(d < 1 for d in dvec):
        raise ValueError("all exponents must be >= 1")
    d = max(dvec)
    values = [Fraction(1)]
    for dm in dvec:
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
        (table.values[j] / (n - j + 1) for j in range(n + 1)), Fraction(0)
    )
    value = Fraction(2, d ** (n + 1)) * total
    if not 0 < value <= 1:
        raise AssertionError("signature out of range (0, 1]")
    return value


def fsignature_z2_closed(dvec) -> Fraction:
    """Closed-form F-signature of S[[z]]/(x^dvec + z^2): 1/2^{n-1} or 0."""
    dvec = tuple(dvec)
    if not dvec or any(d < 1 for d in dvec):
        raise ValueError("dvec must be non-empty with all exponents >= 1")
    n = len(dvec)
    if all(d == 1 for d in dvec):
        return Fraction(1, 2 ** (n - 1))
    return Fraction(0)


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


def expansion_check(dvec, u_values, r_degree_bound: int | None = None) -> bool:
    """Verify the two-variable expansion underlying the signature formula.

    Expands prod_j (d_j*r + q*(d-d_j)/d + u_j) in (r, q) and asserts: the
    coefficient of r^{n-j} q^j is W_j/d^j, and every remaining coefficient
    of r^c is a polynomial in q of degree at most n-1-c.
    """
    table = w_values(dvec)
    n, d = table.n, table.d
    expanded = expansion_coefficients(table.dvec, u_values)
    bound = n if r_degree_bound is None else min(r_degree_bound, n)
    for c in range(bound + 1):
        j = n - c
        if expanded.get((c, j), 0) != table.values[j] / d ** j:
            return False
        residual = [qj for (i, qj) in expanded if i == c and qj != j]
        if residual and max(residual) > n - 1 - c:
            return False
    return True


@dataclass
class SignatureReport:
    """Closed-form value (monomial input only) plus empirical sequence."""

    target: str
    dvec: tuple[int, ...] | None = None
    closed_form: Fraction | None = None
    empirical: list = field(default_factory=list)  # [(e, Fraction), ...]

    def gaps(self) -> list:
        if self.closed_form is None:
            return []
        return [(e, abs(s - self.closed_form)) for e, s in self.empirical]

    def to_json_dict(self) -> dict:
        out = {"target": self.target}
        if self.dvec is not None:
            out["dvec"] = list(self.dvec)
        if self.closed_form is not None:
            out["closed_form"] = _frac_str(self.closed_form)
        out["empirical"] = [
            {"e": e, "s": _frac_str(s)} for e, s in self.empirical
        ]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _as_monomial_data(f: SparsePoly) -> MonomialData | None:
    if not f.is_monomial():
        return None
    ((exps, coeff),) = f.terms.items()
    if any(a < 1 for a in exps):
        return None
    return MonomialData(exps)


def empirical_sequence(
    f: SparsePoly,
    p: int,
    e_range,
    target: str,
    max_size: int = 10 ** 6,
) -> SignatureReport:
    """Exact signature approximants s_e for e in e_range.

    uv target: s_e = free_rank_uv / p^{e(n+1)} (the uv-hypersurface has
    dimension n+1); z2 target: s_e = free_rank_z2 / p^{e*n}.  Raises when
    the largest block size q^n * q^2 would exceed max_size.
    """
    if target not in ("uv", "z2"):
        raise ValueError(f"unknown target {target!r}")
    check_nonunit(f)
    if target == "z2" and p == 2:
        raise ValueError("the f+z^2 target requires p odd")
    md = _as_monomial_data(f)
    closed = None
    if md is not None:
        closed = (
            fsignature_uv_closed(md.dvec)
            if target == "uv"
            else fsignature_z2_closed(md.dvec)
        )
    n = f.n
    report = SignatureReport(
        target=target,
        dvec=md.dvec if md is not None else None,
        closed_form=closed,
    )
    for e in e_range:
        q = p ** e
        if q ** n * q ** 2 > max_size:
            raise ResourceWarning(
                f"matrix work at e={e} exceeds the size bound {max_size}"
            )
        basis = FrobBasis(p, e, n, f.names)
        if target == "uv":
            s = Fraction(free_rank_uv(f, basis), p ** (e * (n + 1)))
        else:
            s = Fraction(free_rank_z2(f, basis), p ** (e * n))
        report.empirical.append((e, s))
    return report
