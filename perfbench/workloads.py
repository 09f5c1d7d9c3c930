"""The benchmark's workloads, its seeded input generator and its output checks.

Each workload is a list of ``Call`` records: the argv of one
``python -m frobsig.cli`` invocation, the exit code it must return, and how
its stdout is checked.  Fixed calls are checked against the exact stdout
bytes recorded in ``expected.json`` for the default seed.  Seeded calls are
checked against stdout rebuilt here from an independent computation (closed
forms, or free ranks from ranks of multiplication maps on the Artinian ring
A = F_p[x]/(x_1^q, ..., x_n^q)), so every seed is checked exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0

# Every call passes --max-size: large enough that no call is truncated or
# refused by the size gate, so its work depends only on its arguments.
# (freerank gates on q^(2n+2) cells, fsignature on q^(n+2) for the same work.)
MAX_SIZE = "1000000000000"


@dataclass
class Call:
    """One CLI invocation and what its output must be."""

    argv: list[str]
    exit: int = 0
    # exact stdout rebuilt by an independent computation; None means the
    # recorded bytes in expected.json are the reference
    stdout: str | None = None
    # top-level JSON fields that a closed form fixes, checked on top of the bytes
    fields: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(call: Call, exit_code: int, stdout: bytes, recorded: dict) -> str | None:
    """None if the call's result is right, else a one-line reason."""
    if exit_code != call.exit:
        return f"exit {exit_code}, expected {call.exit}"
    if call.stdout is not None:
        if stdout != call.stdout.encode():
            return "stdout differs from the independently computed output"
    else:
        want = recorded.get(call.key)
        if want is None:
            return "no recorded output for this call"
        if want["exit"] != call.exit or want["sha256"] != digest(stdout):
            return "stdout differs from the recorded bytes"
    if call.fields:
        try:
            got = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        for name, value in call.fields.items():
            if got.get(name) != value:
                return f"{name} = {got.get(name)!r}, closed form gives {value!r}"
    return None


# -- polynomials, rendered the way the CLI prints them -----------------------


def poly_str(terms: dict) -> str:
    """Canonical rendering: terms in descending exponent order, ' + ' joined."""
    parts = []
    for exps, coeff in sorted(terms.items(), reverse=True):
        factors = [str(coeff)] if coeff != 1 or not any(exps) else []
        for i, a in enumerate(exps, 1):
            if a:
                factors.append(f"x{i}" if a == 1 else f"x{i}^{a}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def poly_arg(terms: dict) -> str:
    return poly_str(terms).replace(" ", "")


def random_poly(rng: random.Random, n: int, p: int, nterms: int, degrees: range) -> dict:
    """nterms distinct terms with total degree in degrees, coefficients in 1..p-1.

    degrees must exclude 0, so that f is a nonzero nonunit; x_n always
    occurs, so the CLI infers n from the text.
    """
    monomials = [
        exps
        for exps in itertools.product(range(degrees[-1] + 1), repeat=n)
        if sum(exps) in degrees
    ]
    while True:
        chosen = rng.sample(monomials, nterms)
        if any(exps[-1] for exps in chosen):
            return {exps: rng.randrange(1, p) for exps in chosen}


def coordinate_change(rng: random.Random, base: dict, p: int) -> dict:
    """c * base(l_1 x_s(1), ..., l_n x_s(n)) for a random permutation s and units c, l_i.

    This is a ring automorphism applied to base, so f^k has the same support
    and the same cancellations for every seed: the program does the same work
    on each image, with its basis in another order.
    """
    n = len(next(iter(base)))
    perm = rng.sample(range(n), n)
    scale = [rng.randrange(1, p) for _ in range(n)]
    unit = rng.randrange(1, p)
    out = {}
    for exps, coeff in base.items():
        coeff *= unit
        for lam, a in zip(scale, exps):
            coeff *= lam ** a
        out[tuple(exps[i] for i in perm)] = coeff % p
    return out


# -- independent answers ------------------------------------------------------


def uv_monomial_free_rank(dvec, q: int) -> int:
    """q^n + 2 * sum_k prod_j max(0, q - d_j (q - k)) for f = x^dvec."""
    total = q ** len(dvec)
    for k in range(1, q):
        t = 1
        for d in dvec:
            t *= max(0, q - d * (q - k))
        total += 2 * t
    return total


def z2_product_free_rank(n: int, q: int) -> int:
    """Free rank over x1*...*xn + z^2: ((q-1)/2)^n + ((q+1)/2)^n."""
    return ((q - 1) // 2) ** n + ((q + 1) // 2) ** n


def _rank_mod(vectors, p: int) -> int:
    pivots: dict = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            col = max(vec)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(vec[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in vec.items()}
                break
            factor = vec[col]
            for c, v in piv.items():
                nv = (vec.get(c, 0) - factor * v) % p
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
    return len(pivots)


def power_image_dims(terms: dict, n: int, p: int, q: int, jmax: int) -> list[int]:
    """[dim_Fp f^j A for j = 0..jmax], A = F_p[x]/(x_1^q, ..., x_n^q).

    The rank of M(f^j, e) at the origin is this dimension, because M(g, e)
    with the variables set to 0 is multiplication by g on A.
    """
    basis = list(itertools.product(range(q), repeat=n))
    dims = [q ** n]
    g = {(0,) * n: 1}
    for _ in range(jmax):
        nxt: dict = {}
        for e1, c1 in g.items():
            for e2, c2 in terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max(e) < q:
                    nxt[e] = (nxt.get(e, 0) + c1 * c2) % p
        g = {e: c for e, c in nxt.items() if c}
        vectors = []
        for beta in basis:
            vec = {}
            for exps, c in g.items():
                e = tuple(a + b for a, b in zip(beta, exps))
                if max(e) < q:
                    vec[e] = c
            vectors.append(vec)
        dims.append(_rank_mod(vectors, p))
    return dims


def free_rank(terms: dict, n: int, p: int, q: int, target: str) -> int:
    """Free rank over f+uv (q^n + 2 sum_j dim f^j A) or f+z^2."""
    dims = power_image_dims(terms, n, p, q, q - 1)
    if target == "uv":
        return q ** n + 2 * sum(dims[1:])
    return dims[(q - 1) // 2] + dims[(q + 1) // 2]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def freerank_call(target: str, terms: dict, n: int, p: int, e: int, rank=None) -> Call:
    """freerank on a generated f; rank defaults to the Artinian computation."""
    q = p ** e
    if rank is None:
        rank = free_rank(terms, n, p, q, target)
    out = {"target": target, "f": poly_str(terms), "q": q, "free_rank": rank}
    argv = ["freerank", "--type", target, "--f", poly_arg(terms),
            "--p", str(p), "--e", str(e), "--max-size", MAX_SIZE]
    return Call(argv, stdout=json.dumps(out) + "\n")


def empirical_uv_call(terms: dict, n: int, p: int, emax: int) -> Call:
    """fsignature sweep on a non-monomial f: s_e = free rank / p^(e(n+1))."""
    empirical = []
    for e in range(1, emax + 1):
        rank = free_rank(terms, n, p, p ** e, "uv")
        empirical.append({"e": e, "s": _frac(Fraction(rank, p ** (e * (n + 1))))})
    argv = ["fsignature", "--type", "uv", "--f", poly_arg(terms),
            "--p", str(p), "--emax", str(emax), "--max-size", MAX_SIZE]
    out = {"target": "uv", "empirical": empirical}
    return Call(argv, stdout=json.dumps(out) + "\n")


def verify_call(terms: dict, n: int, p: int, e: int, k: int) -> Call:
    q = p ** e
    out = {"f": poly_str(terms), "q": q, "k": k, "size": q ** n, "verified": True}
    argv = ["verify", "--f", poly_arg(terms), "--p", str(p), "--e", str(e),
            "--k", str(k), "--max-size", MAX_SIZE]
    return Call(argv, stdout=json.dumps(out) + "\n")


def fixed(text: str, exit: int = 0, **fields) -> Call:
    """A call checked against its recorded stdout bytes (and closed forms)."""
    argv = text.split()
    if "--max-size" not in argv:
        argv += ["--max-size", MAX_SIZE]
    return Call(argv, exit=exit, fields=fields)


# -- workloads ------------------------------------------------------------------


def sweep(rng: random.Random) -> list[Call]:
    # Free ranks and empirical s_e on non-monomial f, where PolyMatrix
    # products dominate: in free_rank_uv at p=3, e=3, n=2 about 90% of the
    # time is PolyMatrix.__mul__ inside verify_matfac, whose result is
    # discarded.  Dropping that check or computing ranks on the Artinian
    # quotient (ROADMAP items 3 and 4) should show here.
    # The seeded f are coordinate changes of fixed singular f, because the
    # cost of f^k depends on cancellations among its coefficients: random
    # coefficients for x1^2+x1^3+x1^4 over F_5 give 2, 6 or 8 of the 24
    # powers past the direct-construction limit, and 0.5 s to 2.6 s of work.
    n1 = coordinate_change(rng, {(2,): 1, (3,): 1, (4,): 1}, 5)
    n2 = coordinate_change(rng, {(3, 0): 1, (2, 1): 1, (0, 2): 1}, 3)
    return [
        fixed("fsignature --type uv --f x1^2+x2^3 --p 3 --emax 3"),
        fixed("freerank --type z2 --f x1^2+x2^2+x3^2 --p 3 --e 2"),
        fixed("freerank --type uv --f x1^2+x1*x2+x2^3 --p 3 --e 2"),
        empirical_uv_call(n1, 1, 5, 2),
        freerank_call("uv", n2, 2, 3, 2),
    ]


def monomial(rng: random.Random) -> list[Call]:
    # Monomial f on large bases of sparse generalized-permutation matrices
    # (up to 15625 basis elements): matrix building, diagonalization and
    # rank at the origin at sizes sweep never reaches.  The Kronecker path
    # of ROADMAP item 5 should move this workload and leave sweep unchanged.
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    return [
        fixed("freerank --type uv --f x1*x2 --p 7 --e 2",
              free_rank=uv_monomial_free_rank((1, 1), 49)),
        fixed("freerank --type z2 --f x1*x2*x3 --p 5 --e 2",
              free_rank=z2_product_free_rank(3, 25)),
        fixed("decompose --dvec 24,24,24 --p 5 --e 2"),  # q <= d+1: diagonalization
        fixed("decompose --dvec 2,1 --p 7 --e 2"),  # q > d+1: closed-form eta
        fixed("fsignature --type uv --f x1^2*x2 --p 5 --emax 2", closed_form="5/12"),
        freerank_call("uv", {(a, b): 1}, 2, 5, 2, rank=uv_monomial_free_rank((a, b), 25)),
    ]


def cli(rng: random.Random) -> list[Call]:
    # About 20 short calls where interpreter start-up and the import of
    # frobsig (sympy included) dominate, over all five subcommands, JSON and
    # CSV output, and the refusals with exit 2 and 3.  Dropping sympy and
    # plumbing changes should show here; the algorithmic items should not.
    # verify asks for the factorization check explicitly, so it must keep
    # its matrix products when compute paths stop verifying.
    tiny = [random_poly(rng, 2, 3, 2, range(1, 3)) for _ in range(3)]
    return [
        fixed("matrix --f x1^2+x1*x2 --p 3 --e 1"),
        fixed("matrix --f x1^2+x1*x2 --p 3 --e 1 --format csv"),
        fixed("matrix --f x1^2+x1*x2+x2^3 --p 5 --e 2 --power 7"),  # ~200 KB of JSON
        fixed("fsignature --type uv --dvec 2,1", closed_form="5/12"),
        fixed("fsignature --type z2 --dvec 1,1", closed_form="1/2"),
        fixed("fsignature --type z2 --f x1*x2 --p 3 --emax 2", closed_form="1/2"),
        fixed("decompose --dvec 2 --p 3 --e 1"),
        fixed("freerank --type z2 --f x1^3 --p 3 --e 1"),
        fixed("freerank --type uv --f x1*x2 --p 3 --e 1",
              free_rank=uv_monomial_free_rank((1, 1), 3)),
        fixed("verify --f x1^2+x2^3 --p 3 --e 3 --k 13"),
        fixed("verify --f x1^2 --p 3 --e 1 --k 1"),
        fixed("freerank --type uv --f x1^2 --p 4 --e 1", exit=2),
        fixed("freerank --type z2 --f x1^2 --p 2 --e 1", exit=2),
        # known defect: refused with an internal message; kept as a refusal
        fixed("freerank --type uv --f 1+x1 --p 3 --e 1", exit=2),
        fixed("matrix --f x1*u --p 3 --e 1", exit=2),
        fixed("matrix --f x1^ --p 3 --e 1", exit=2),
        fixed("matrix --f x1^2+x2 --p 3 --e 2 --max-size 10", exit=3),
        freerank_call("uv", tiny[0], 2, 3, 1),
        freerank_call("z2", tiny[1], 2, 3, 1),
        verify_call(tiny[2], 2, 3, 1, 1),
    ]


WORKLOADS = {"sweep": sweep, "monomial": monomial, "cli": cli}


def generate(name: str, seed: int) -> list[Call]:
    """The calls of one workload; the same seed gives the same calls."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
