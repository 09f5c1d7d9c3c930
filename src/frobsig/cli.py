"""Command-line front end emitting machine-readable reports.

Subcommands: matrix, fsignature, decompose, freerank, verify.  Each declares
only the flags it reads (``frobsig <cmd> -h``); argparse refuses the rest.
Data goes to standard output (JSON, or CSV for matrices), diagnostics to
standard error.  Exit codes: 0 success, 2 validation error (usage errors
included), 3 resource bound exceeded; every refusal is one stderr line.
Output is deterministic for a fixed configuration.  Each subcommand
imports its own route when it runs, so a call loads only the modules it
uses.

``--max-size`` is the budget of ``ring``'s work meter: the routes tick the
work they do, and a call that passes the budget is refused while it runs,
after about that much work.  An ``fsignature`` sweep gives each e a
budget of its own.  How ``--f`` reads and Python's digit limit are
``ring``'s.
"""

from __future__ import annotations

import argparse
import json
import sys

# ring and hypersurface load with the CLI; every other module is imported
# by the subcommand that uses it
from .hypersurface import (TARGETS, check_exponents, check_target, free_rank_uv,
                           free_rank_z2, presentation_fk)
from .ring import (FrobBasis, SparsePoly, check_digits, close_budget, open_budget,
                   parse_int, parse_poly, variable_count)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_SIZE = 10 ** 6


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
                     help="refuse a call once its work passes this many units"),
}


def _parse_f(args) -> SparsePoly:
    """f from --dvec or --f."""
    if args.f is None:
        return SparsePoly.monomial(args.dvec, args.p, len(args.dvec))
    n = variable_count(args.f)
    if args.n is not None and n > args.n:
        raise ValueError(f"--n {args.n} is smaller than highest variable index {n}")
    # malformed text is refused in the parser's words, a constant after it
    f = parse_poly(args.f, args.p, args.n or max(n, 1))
    if args.n is None and not n:
        raise ValueError("cannot infer variable count; pass --n")
    return f


def cmd_matrix(args) -> str:
    f = _parse_f(args)
    basis = FrobBasis(args.p, args.e, f.n)
    # x^j f^power with j_i = q-1 and deg_i f^power = power * deg_i f puts
    # x_i^ceil(power * deg_i f / q) in some entry: the widest exponent printed
    degree = max((a for exps in f.terms for a in exps), default=0)
    widest = -(-args.power * degree // basis.q)
    check_digits(widest, f"M(f^{args.power}, {args.e}) has exponents with too many "
                 "digits to print")
    # imported only once f is accepted, so that a refusal loads nothing more
    from .frobenius import matrix_power

    m = matrix_power(f, args.power, basis)
    return m.to_csv() if args.format == "csv" else m.to_json()


def cmd_fsignature(args) -> str:
    from .fsig import SignatureReport, approximant, closed_form, empirical_sequence

    if args.f is None:
        closed = closed_form(args.dvec, args.target)
        return SignatureReport(args.target, args.dvec, closed).to_json()
    if args.p is None:
        raise ValueError("--p is required")
    f = _parse_f(args)
    # e = 1, and the closed form of a monomial f, spend the call's budget;
    # each later e gets one of its own, and the first to pass it ends the sweep
    report = empirical_sequence(f, args.p, range(1, 2), args.target)
    later = []
    for e in range(2, (args.emax or 1) + 1):
        open_budget(args.max_size)
        try:
            later.append((e, approximant(f, args.p, e, args.target)))
        except ResourceWarning:
            print(f"note: truncating sweep to e <= {e - 1} "
                  f"(size bound {args.max_size})", file=sys.stderr)
            break
    return report._replace(empirical=report.empirical + later).to_json()


def cmd_decompose(args) -> str:
    from .monomial import MonomialData, decomposition_report

    return decomposition_report(MonomialData(args.dvec), args.p, args.e).to_json()


def cmd_freerank(args) -> str:
    f = _parse_f(args)
    basis = FrobBasis(args.p, args.e, f.n)
    free_rank = free_rank_uv if args.target == "uv" else free_rank_z2
    rank = free_rank(f, basis)
    check_digits(rank, "the free rank has too many digits to print")
    return json.dumps(
        {"target": args.target, "f": str(f), "q": basis.q, "free_rank": rank}
    )


def cmd_verify(args) -> str:
    f = _parse_f(args)
    basis = FrobBasis(args.p, args.e, f.n)
    from .matfac import verify_matfac

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
        open_budget(args.max_size)
        try:
            output = args.run(args)
        finally:
            close_budget()
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
