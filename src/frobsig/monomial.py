"""Closed forms for monomial hypersurfaces f = x_1^{d_1} ... x_n^{d_n}.

For monomial f every matrix M(f^k,e) is a generalized permutation matrix
with monomial entries, so it diagonalizes by row/column permutations alone.
The diagonal entries x^c with c in the box Gamma = prod [0, d_j] occur with
multiplicity eta_k(c), a product of per-variable counts in closed form.
This module computes eta, performs the permutation diagonalization (the
tests' independent check of eta), gives the free-rank product formula, and
assembles the full decomposition report from eta alone.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

from .frobenius import PolyMatrix
from .ring import SparsePoly, check_prime


@dataclass(frozen=True)
class MonomialData:
    """Exponent vector of a monomial hypersurface."""

    dvec: tuple[int, ...]

    def __post_init__(self):
        if not self.dvec:
            raise ValueError("dvec must be non-empty")
        if any(d < 1 for d in self.dvec):
            raise ValueError("all exponents must be >= 1")
        object.__setattr__(self, "dvec", tuple(self.dvec))

    @property
    def n(self) -> int:
        return len(self.dvec)

    @property
    def d(self) -> int:
        return max(self.dvec)

    def gamma(self):
        """The label box: all c with 0 <= c_j <= d_j."""
        return itertools.product(*(range(d + 1) for d in self.dvec))

    def poly(self, p: int, names=None) -> SparsePoly:
        return SparsePoly.monomial(self.dvec, p, self.n, 1, names)


def eta(k: int, c, md: MonomialData, q: int) -> int:
    """Multiplicity of the diagonal entry x^c in diagonalized M(f^k,e).

    Per variable: eta_k(c_j) = q - |c_j*q - k*d_j| when that is positive,
    else 0, which counts the b in [0, q) with floor((b + k*d_j)/q) = c_j
    for every q; the total is the product over variables.
    """
    if not 1 <= k <= q - 1:
        raise ValueError(f"k must satisfy 1 <= k <= q-1 = {q - 1}")
    c = tuple(c)
    if len(c) != md.n or any(not 0 <= cj <= dj for cj, dj in zip(c, md.dvec)):
        raise ValueError(f"label {c} outside the box of {md.dvec}")
    total = 1
    for cj, dj in zip(c, md.dvec):
        gap = abs(cj * q - k * dj)
        if gap >= q:
            return 0
        total *= q - gap
    return total


def diagonalize_monomial_matrix(a: PolyMatrix) -> Counter:
    """Multiset of diagonal exponent tuples after row/column permutation.

    Requires a generalized permutation matrix with monomial entries: at most
    one nonzero entry per row and per column, and no zero row or column.
    """
    if a.rows != a.cols:
        raise ValueError("expected a square matrix")
    seen_rows = set()
    diagonal = Counter()
    for col in a.data:
        if len(col) != 1:
            raise ValueError("matrix is not of generalized-permutation form")
        ((i, poly),) = col.items()
        if i in seen_rows or not poly.is_monomial():
            raise ValueError("matrix is not of generalized-permutation form")
        seen_rows.add(i)
        (exps,) = poly.terms
        diagonal[exps] += 1
    return diagonal


def free_rank_formula(md: MonomialData, q: int, k: int) -> int:
    """Trivial-summand count of M(f^k,e): prod_j max(0, q - d_j(q-k)).

    The clamp at 0 encodes that the count vanishes unless k > q(d_j-1)/d_j
    for every j.
    """
    if not 1 <= k <= q - 1:
        raise ValueError(f"k must satisfy 1 <= k <= q-1 = {q - 1}")
    total = 1
    for dj in md.dvec:
        factor = q - dj * (q - k)
        if factor <= 0:
            return 0
        total *= factor
    return total


@dataclass
class DecompositionReport:
    """Summand decomposition of F_*^e(S[[u,v]]/(x^dvec + uv)).

    ``summands`` maps interior labels c (0 < c < dvec somewhere) to their
    total multiplicity over k = 1..q-1; labels 0 and dvec fold into the
    free part.  ``threshold_ok`` records whether q > max d_j + 1, the
    paper's hypothesis; it is reported only, since the eta counts hold for
    every q and the report is computed from them alone.
    """

    q: int
    e: int
    dvec: tuple[int, ...]
    free_rank: int
    summands: dict = field(default_factory=dict)
    threshold_ok: bool = True

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "e": self.e,
            "free_rank": self.free_rank,
            "summands": [
                {"c": list(c), "multiplicity": m}
                for c, m in sorted(self.summands.items())
            ],
            "threshold_ok": self.threshold_ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _window(k: int, md: MonomialData, q: int):
    """The labels c with eta_k(c) > 0, at most 2^n of them.

    eta_k(c_j) = q - |c_j*q - k*d_j| is positive exactly when c_j is
    floor(k*d_j/q) or ceil(k*d_j/q).
    """
    choices = []
    for dj in md.dvec:
        lo, rem = divmod(k * dj, q)
        choices.append((lo, lo + 1) if rem else (lo,))
    return itertools.product(*choices)


def decomposition_report(md: MonomialData, p: int, e: int) -> DecompositionReport:
    """Full decomposition of F_*^e over the uv-hypersurface of x^dvec.

    Sums eta_k(c) over the window of labels where it is positive, for every
    q = p^e on either side of the threshold q > max d_j + 1.  Diagonalizing
    each M(f^k,e) gives the same counts and is the tests' independent check.
    """
    check_prime(p)
    if e < 1:
        raise ValueError("e must be >= 1")
    q = p ** e
    labels = Counter()
    for k in range(1, q):
        for c in _window(k, md, q):
            labels[c] += eta(k, c, md, q)
    free_rank = q ** md.n + labels.pop((0,) * md.n, 0) + labels.pop(md.dvec, 0)
    return DecompositionReport(
        q=q,
        e=e,
        dvec=md.dvec,
        free_rank=free_rank,
        summands=dict(labels),
        threshold_ok=q > md.d + 1,
    )


def ffrt_witness(md: MonomialData, p: int, e_max: int) -> set:
    """Labels c with eta_k(c) > 0 for some e <= e_max, k < p^e.

    Always a subset of the finite box Gamma: the computational witness that
    only finitely many summand classes ever occur.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    out = set()
    for e in range(1, e_max + 1):
        q = p ** e
        for k in range(1, q):
            out.update(_window(k, md, q))
    return out
