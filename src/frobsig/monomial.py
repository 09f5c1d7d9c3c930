"""Closed forms for monomial hypersurfaces f = x_1^{d_1} ... x_n^{d_n}.

For monomial f every matrix M(f^k,e) is a generalized permutation matrix
with monomial entries, so it diagonalizes by row/column permutations alone.
The diagonal entries x^c with c in the box Gamma = prod [0, d_j] occur with
multiplicity eta_k(c), a product of per-variable counts in closed form.
This module computes eta, performs the permutation diagonalization (the
tests' independent check of eta), gives the free-rank product formula, and
assembles the full decomposition report from eta alone.  The reports take
q from ``FrobBasis``, and the rule for the power index k from
``hypersurface``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, namedtuple

from .hypersurface import check_exponents, check_power_index
from .ring import FrobBasis, SparsePoly, check_digits, tick


class MonomialData(namedtuple("MonomialData", "dvec")):
    """Exponent vector of a monomial hypersurface."""

    __slots__ = ()

    def __new__(cls, dvec):
        return super().__new__(cls, check_exponents(dvec))

    @property
    def n(self) -> int:
        return len(self.dvec)

    @property
    def d(self) -> int:
        return max(self.dvec)

    def gamma(self):
        """The label box: all c with 0 <= c_j <= d_j."""
        return itertools.product(*(range(d + 1) for d in self.dvec))

    def poly(self, p: int) -> SparsePoly:
        return SparsePoly.monomial(self.dvec, p, self.n)


def eta(k: int, c, md: MonomialData, q: int) -> int:
    """Multiplicity of the diagonal entry x^c in diagonalized M(f^k,e).

    Per variable: eta_k(c_j) = q - |c_j*q - k*d_j| when that is positive,
    else 0, which counts the b in [0, q) with floor((b + k*d_j)/q) = c_j
    for every q; the total is the product over variables.
    """
    check_power_index(k, q)
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


def diagonalize_monomial_matrix(a) -> Counter:
    """Multiset of diagonal exponent tuples after row/column permutation.

    ``a`` (a ``frobenius.PolyMatrix``) must be a generalized permutation
    matrix with monomial entries: at most one nonzero entry per row and per
    column, and no zero row or column.
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

    The trivial summands are those of label c = dvec, which
    ``decomposition_report`` folds into the free part, so the count is
    eta_k(dvec).  The clamp at 0 encodes that it vanishes unless
    k > q(d_j-1)/d_j for every j.
    """
    return eta(k, md.dvec, md, q)


class DecompositionReport(namedtuple(
    "DecompositionReport", "q e dvec free_rank summands threshold_ok"
)):
    """Summand decomposition of F_*^e(S[[u,v]]/(x^dvec + uv)).

    ``summands`` maps interior labels c (0 < c < dvec somewhere) to their
    total multiplicity over k = 1..q-1; labels 0 and dvec fold into the
    free part.  ``threshold_ok`` records whether q > max d_j + 1, the
    paper's hypothesis; it is reported only, since the eta counts hold for
    every q and the report is computed from them alone.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        check_digits(max([self.free_rank, *self.summands.values()]),
                     "the report has too many digits to print")
        # the characters printed: the head, then each summand's, which
        # prints c as str(c) does, or one shorter
        tick(len(f'{{"q": {self.q}, "e": {self.e}, "free_rank": {self.free_rank}, '
                 f'"summands": [], "threshold_ok": false}}\n'))
        summands = []
        for c, m in sorted(self.summands.items()):
            tick(len(f'{{"c": {c}, "multiplicity": {m}}}, '))
            summands.append({"c": list(c), "multiplicity": m})
        return {
            "q": self.q,
            "e": self.e,
            "free_rank": self.free_rank,
            "summands": summands,
            "threshold_ok": self.threshold_ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _window(k: int, md: MonomialData, q: int):
    """The choices of each c_j for the labels c with eta_k(c) > 0, their
    product at most 2^n labels.

    eta_k(c_j) = q - |c_j*q - k*d_j| is positive exactly when c_j is
    floor(k*d_j/q) or ceil(k*d_j/q).
    """
    choices = []
    for dj in md.dvec:
        lo, rem = divmod(k * dj, q)
        choices.append((lo, lo + 1) if rem else (lo,))
    return choices


def decomposition_report(md: MonomialData, p: int, e: int) -> DecompositionReport:
    """Full decomposition of F_*^e over the uv-hypersurface of x^dvec.

    Sums eta_k(c) over the window of labels where it is positive, for every
    q = p^e on either side of the threshold q > max d_j + 1.  Diagonalizing
    each M(f^k,e) gives the same counts and is the tests' independent check.
    """
    q = FrobBasis(p, e, md.n).q
    # each label: about 4 us, eta checking its arguments, and a factor for
    # each of its n variables, for each 64-bit word of q
    label = (8 + md.n) * (1 + q.bit_length() // 64)
    labels = Counter()
    for k in range(1, q):
        choices = _window(k, md, q)
        tick(label << sum(len(c) - 1 for c in choices))
        for c in itertools.product(*choices):
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
    only finitely many summand classes ever occur.  The window of k' at q' =
    q/p^i is the window of k = p^i k' at q = p^e_max, since k'd/q' = kd/q,
    so the labels at q alone are all of them.
    """
    q = FrobBasis(p, e_max, md.n).q
    return {c for k in range(1, q) for c in itertools.product(*_window(k, md, q))}
