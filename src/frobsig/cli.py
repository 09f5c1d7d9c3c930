"""Command-line front end emitting machine-readable reports.

Subcommands: matrix, fsignature, decompose, freerank, verify.  Each declares
only the flags it reads (``frobsig <cmd> -h``); argparse refuses the rest.
Data goes to standard output (JSON, or CSV for matrices), diagnostics to
standard error.  Exit codes: 0 success, 2 validation error (usage errors
included), 3 resource bound exceeded; every refusal is one stderr line.
Output is deterministic for a fixed configuration.  Each subcommand
imports its own route when it runs, so a call loads only the modules it
uses.

The size gate is this module's alone: ``check_work`` refuses a call whose
route is priced over ``--max-size`` before the work starts, and the library
functions compute whatever they are given.  Each route is priced by what it
forms: a matrix by what it prints and verify by its pair and their product,
each first by its q^n columns so that a huge e or n is refused before q^n
is formed; decompose by its eta terms and report; a free rank by the
``hypersurface.Plan`` of f, which the free rank makes again and runs; the
uv closed form by its W recursion.  How ``--f`` reads and Python's digit
limit are ``ring``'s.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod

# ring and hypersurface load with the CLI; every other module is imported
# by the subcommand that uses it
from .hypersurface import (TARGETS, Plan, check_exponents, check_power_index,
                           check_target, free_rank_uv, free_rank_z2)
from .ring import (FrobBasis, SparsePoly, check_digits, check_prime, parse_int,
                   parse_poly, variable_count)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_SIZE = 10 ** 6

# The work of a route, in its unit, is the sum of q^a * c over pairs (a, c)
# for q = p^e; hypersurface.Plan prices a free rank from f.
FREE_RANK = "units of free-rank work"
CLOSED_FORM = "units of closed-form work"
PRINTED = "printed characters"
TERM_PRODUCTS = "term products"
ETA_TERMS = "eta terms"


def check_work(unit: str, pairs, max_size: int, e: int = 0, p: int = 2) -> None:
    """Raise ResourceWarning when the work of ``pairs`` exceeds ``max_size``.

    A route priced without q, each of its pairs of power 0, leaves out e;
    pairs left at p = 2 bound the work at every prime p below, as q >= 2^e.
    """
    check_prime(p)
    # a prime p is at least 2 and c >= 2^(bitlen(c) - 1), so the work is at
    # least 2^bits: a huge e or n is refused before p^e is formed
    bits = max(e * a + c.bit_length() - 1 for a, c in pairs)
    work = f"at least 2^{bits}"
    if bits < max_size.bit_length():
        # q^0 = 1 without forming q, which a pair of power 0 does not bound
        work = sum(p ** (e * a) * c for a, c in pairs)
        if work <= max_size:
            return
    raise ResourceWarning(
        f"requested computation needs {work} {unit}, over the bound {max_size}"
    )


def check_closed_form(dvec, target: str, max_size: int) -> None:
    """Raise ResourceWarning when the closed form of ``dvec`` exceeds
    ``max_size``.

    The uv closed form's W recursion makes about n^2 multiply-adds of a W of
    up to n * bitlen(2d) bits by an exponent of up to bitlen(2d) bits; with
    w and v those sizes in 64-bit words, each is priced (64 + w v) / 256
    units, fitted to measured times like the free-rank units.  The z2
    closed form reads no W and is not priced.
    """
    if target != "uv":
        return
    n, bits = len(dvec), (2 * max(dvec)).bit_length()
    words = -(-n * bits // 64) * -(-bits // 64)
    check_work(CLOSED_FORM, ((0, -(-n * n * (64 + words) // 256)),), max_size)


def _check_matrix(f: SparsePoly, power: int, max_size: int, e: int, p: int) -> None:
    """Raise ResourceWarning when M(f^power, e) would print more than
    ``max_size`` characters, ValueError when an exponent would not print."""
    n = f.n
    # each of the q^n columns prints at least one character, and q >= 2^e
    check_work(PRINTED, ((n, 1),), max_size, e)
    q = p ** e
    # x^j f^power with j_i = q-1 and deg_i f^power = power * deg_i f puts
    # x_i^ceil(power * deg_i f / q) in some entry: the widest exponent printed
    degree = max((a for exps in f.terms for a in exps), default=0)
    widest = -(-power * degree // q)
    check_digits(widest, f"M(f^{power}, {e}) has exponents with too many digits to print")
    # a column holds the terms of f^power, at most ``terms``, each printed as
    # c*x1^a*...*xn^a with c < p and a <= widest, joined by " + ", in an
    # entry [row, col, "..."] of indices below q^n; the JSON writer prints
    # more around them than the CSV writer
    terms = f.power_terms_bound(power)
    digits = len(str(q ** n))
    term = len(str(p)) + n * len(f"*x{n}^{widest}") + len(" + ")
    entry = 2 * digits + len('[, , ""], ')
    head = 2 * digits + len('{"rows": , "cols": , "entries": []}\n')
    check_work(PRINTED, ((0, head), (n, terms * (term + entry))), max_size, e, p)


def _check_verify(f: SparsePoly, k: int, max_size: int, e: int, p: int) -> None:
    """Raise ResourceWarning when verify's work exceeds ``max_size``: in each
    of q^n columns, the products of the terms of M(f^k, e) and M(f^(q-k), e)
    in phi * psi and the n exponents of the column and of each of those
    terms, or 11 if that is more."""
    # each of the q^n columns costs at least one unit, and q >= 2^e
    check_work(TERM_PRODUCTS, ((f.n, 1),), max_size, e)
    q = p ** e
    check_power_index(k, q)
    lk, lqk = f.power_terms_bound(k), f.power_terms_bound(q - k)
    # a column costs 11 to 15 microseconds however little it holds:
    # M(x1, 1) and its product take 1.67 s at p = 99991
    column = max(lk * lqk + f.n * (1 + lk + lqk), 11)
    check_work(TERM_PRODUCTS, ((f.n, column),), max_size, e, p)


def _check_decompose(dvec, max_size: int, e: int, p: int) -> None:
    """Raise ResourceWarning when the decomposition report of x^dvec at e
    exceeds ``max_size``.

    For each k < q its eta loop takes at most 2^n labels c, each eta_k(c) a
    product of the n per-variable eta terms eta_k(c_j).  It reports at most
    min(q 2^n, prod(d_j + 1)) labels, each printed as {"c": [c_1, ...],
    "multiplicity": m} with c_j <= d_j and m, like the free rank, below
    3 q^(n+1), of at most (n+1) len(str(q)) + 1 digits.
    """
    n = len(dvec)
    check_work(ETA_TERMS, ((1, n << n),), max_size, e, p)
    q = p ** e
    labels = min(q << n, prod(d + 1 for d in dvec))
    count = (n + 1) * len(str(q)) + 1
    label = sum(len(str(d)) + len(", ") for d in dvec) + count
    label += len('{"c": [], "multiplicity": }, ')
    head = len(str(q)) + len(str(e)) + count
    head += len('{"q": , "e": , "free_rank": , "summands": [], "threshold_ok": false}\n')
    check_work(PRINTED, ((0, head + labels * label),), max_size)


def _int(text: str) -> int:
    # argparse's words for a bad int; parse_int's for one of too many digits
    try:
        return parse_int(text, argparse.ArgumentTypeError)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive(text: str) -> int:
    try:
        value = parse_int(text, argparse.ArgumentTypeError)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _parse_dvec(text: str) -> tuple[int, ...]:
    try:
        dvec = tuple(
            parse_int(part, argparse.ArgumentTypeError) for part in text.split(",")
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad exponent vector {text!r}; expected e.g. 2,1"
        )
    try:
        return check_exponents(dvec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


FLAGS = {
    "f": dict(help="polynomial in x1..xn"),
    "dvec": dict(type=_parse_dvec, help="monomial exponents, e.g. 2,1"),
    "p": dict(type=_int, help="prime characteristic"),
    "e": dict(type=_positive, help="Frobenius iterate"),
    "emax": dict(type=_positive, help="largest e for sweeps (default 1)"),
    "n": dict(type=_positive, help="variable count override"),
    "k": dict(type=_int, default=1, help="power index k"),
    "power": dict(type=_positive, default=1, help="power of f"),
    "type": dict(choices=tuple(TARGETS), dest="target", help="f+uv or f+z^2"),
    "format": dict(choices=("json", "csv"), default="json", help="output format"),
    "max-size": dict(type=_positive, default=DEFAULT_MAX_SIZE,
                     help="refuse calls whose work exceeds this: printed "
                     "characters for matrix and the decompose report, term "
                     "products for verify, eta terms for decompose; units of "
                     "free-rank work, priced from the route f runs, for "
                     "freerank and fsignature --f, and for parsing any --f; "
                     "units of closed-form work for the uv closed form of "
                     "fsignature"),
}


def _parse_f(args) -> SparsePoly:
    """f from --dvec, or from --f once the parser's work on it fits
    ``--max-size``."""
    if args.f is None:
        return SparsePoly.monomial(args.dvec, args.p, len(args.dvec))
    n = variable_count(args.f)
    if args.n is not None and n > args.n:
        raise ValueError(f"--n {args.n} is smaller than highest variable index {n}")
    if args.n is None and not n:
        # malformed text is refused in the parser's words, a constant here
        parse_poly(args.f, args.p, 1)
        raise ValueError("cannot infer variable count; pass --n")
    n = args.n or n
    # the parser reads each term of --f as n exponents, and every term after
    # the first follows a + or -
    terms = 1 + args.f.count("+") + args.f.count("-")
    check_work(FREE_RANK, ((0, n * terms),), args.max_size, p=args.p)
    return parse_poly(args.f, args.p, n)


def _check_free_rank(f: SparsePoly, args, e: int) -> None:
    """Raise ResourceWarning when the price of f's free-rank plan at e, the
    route the free rank will run, exceeds ``--max-size``."""
    plan = Plan(f, args.p, e, args.target)
    check_work(FREE_RANK, plan.price, args.max_size, e, args.p)


def cmd_matrix(args) -> str:
    f = _parse_f(args)
    _check_matrix(f, args.power, args.max_size, args.e, args.p)
    # imported only once f is accepted, so that a refusal loads nothing more
    from .frobenius import matrix_power

    m = matrix_power(f, args.power, FrobBasis(args.p, args.e, f.n))
    return m.to_csv() if args.format == "csv" else m.to_json()


def cmd_fsignature(args) -> str:
    from .fsig import (SignatureReport, closed_form, empirical_sequence,
                       monomial_exponents)

    if args.f is None:
        check_closed_form(args.dvec, args.target, args.max_size)
        closed = closed_form(args.dvec, args.target)
        return SignatureReport(args.target, args.dvec, closed).to_json()
    if args.p is None:
        raise ValueError("--p is required")
    f = _parse_f(args)
    # the work grows with e: the sweep stops before the first e over the bound
    emax, last = args.emax or 1, 1
    _check_free_rank(f, args, 1)
    for e in range(2, emax + 1):
        try:
            _check_free_rank(f, args, e)
        except ResourceWarning:
            break
        last = e
    # a monomial f with every exponent >= 1 also has its closed form
    dvec = monomial_exponents(f)
    if dvec is not None:
        check_closed_form(dvec, args.target, args.max_size)
    report = empirical_sequence(f, args.p, range(1, last + 1), args.target)
    # noted once f is accepted, so that a refusal stays one line
    if last < emax:
        print(f"note: truncating sweep to e <= {last} "
              f"(size bound {args.max_size})", file=sys.stderr)
    return report.to_json()


def cmd_decompose(args) -> str:
    from .monomial import MonomialData, decomposition_report

    _check_decompose(args.dvec, args.max_size, args.e, args.p)
    return decomposition_report(MonomialData(args.dvec), args.p, args.e).to_json()


def cmd_freerank(args) -> str:
    f = _parse_f(args)
    _check_free_rank(f, args, args.e)
    basis = FrobBasis(args.p, args.e, f.n)
    free_rank = free_rank_uv if args.target == "uv" else free_rank_z2
    rank = free_rank(f, basis)
    check_digits(rank, "the free rank has too many digits to print")
    return json.dumps(
        {"target": args.target, "f": str(f), "q": basis.q, "free_rank": rank}
    )


def cmd_verify(args) -> str:
    f = _parse_f(args)
    _check_verify(f, args.k, args.max_size, args.e, args.p)
    # imported only once the pair is priced, so that a refusal loads nothing more
    from .hypersurface import presentation_fk
    from .matfac import verify_matfac

    basis = FrobBasis(args.p, args.e, f.n)
    mf = presentation_fk(f, args.k, basis)
    if not verify_matfac(mf.phi, mf.psi, f):
        raise ValueError("the pair is not a matrix factorization of f")
    return json.dumps(
        {"f": str(f), "q": basis.q, "k": args.k, "size": mf.size, "verified": True}
    )


# flags per subcommand: "name!" is required, "a|b" takes exactly one of a and b
SUBCOMMANDS = {
    "matrix": (cmd_matrix, "build the matrix of multiplication by f^power",
               "f! p! e! n power format max-size"),
    "fsignature": (cmd_fsignature, "closed-form and/or empirical F-signature",
                   "type! f|dvec p emax n max-size"),
    "decompose": (cmd_decompose, "summand decomposition report for a monomial",
                  "dvec! p! e! max-size"),
    "freerank": (cmd_freerank, "free rank of the pushforward over f+uv or f+z^2",
                 "type! f|dvec p! e! n max-size"),
    "verify": (cmd_verify, "check the (k, q-k) power pair is a matrix factorization",
               "f|dvec p! e! n k max-size"),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so they exit 2 with one line."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frobsig",
        description="Exact Frobenius-pushforward matrices, summand "
        "decompositions, and F-signatures for hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, flags) in SUBCOMMANDS.items():
        # no abbreviated flags: fsignature would read --e as --emax
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        cmd.set_defaults(run=run)
        for flag in flags.split():
            if "|" in flag:
                group = cmd.add_mutually_exclusive_group(required=True)
                for alt in flag.split("|"):
                    group.add_argument(f"--{alt}", **FLAGS[alt])
            else:
                key = flag.rstrip("!")
                cmd.add_argument(f"--{key}", required=flag != key, **FLAGS[key])
    return parser


def _parse_args(argv):
    try:
        return _build_parser().parse_args(argv)
    except ValueError as exc:
        # argparse reads the "-x1" of "--f -x1" as a flag, not as the value
        if str(exc) == "argument --f: expected one argument":
            for flag, value in zip(argv, argv[1:]):
                if flag == "--f" and value[:1] == "-" and value[:2] != "--":
                    raise ValueError(f"{exc} (write an f that starts with '-' "
                                     f"as --f={value})") from None
        raise


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if getattr(args, "target", None):
            check_target(args.target, getattr(args, "p", None))
        # --dvec sets the variable count, and makes fsignature a closed form,
        # which reads no p and sweeps no e
        if getattr(args, "dvec", None):
            unread = ("n", "p", "emax") if args.command == "fsignature" else ("n",)
            for flag in unread:
                if getattr(args, flag, None) is not None:
                    raise ValueError(f"--{flag} applies only with --f, not with --dvec")
        output = args.run(args)
    except ResourceWarning as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
