"""Command-line front end emitting machine-readable reports.

Subcommands: matrix, fsignature, decompose, freerank, verify.  Data goes
to standard output (JSON, or CSV for matrices), diagnostics to standard
error.  Exit codes: 0 success, 2 validation error, 3 resource bound
exceeded.  Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from .frobenius import FrobBasis, matrix_power
from .fsig import (
    SignatureReport,
    empirical_sequence,
    fsignature_uv_closed,
    fsignature_z2_closed,
)
from .hypersurface import free_rank_uv, free_rank_z2, presentation_fk
from .matfac import verify_matfac
from .monomial import MonomialData, decomposition_report
from .ring import SparsePoly, check_prime, parse_poly

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_SIZE = 10 ** 6


@dataclass
class RunConfig:
    command: str
    p: int | None = None
    e: int | None = None
    emax: int | None = None
    f_text: str | None = None
    dvec: tuple[int, ...] | None = None
    n: int | None = None
    k: int = 1
    power: int = 1
    target: str | None = None
    fmt: str = "json"
    max_size: int = DEFAULT_MAX_SIZE


def _infer_n(f_text: str, n_flag: int | None) -> int:
    indices = [int(m) for m in re.findall(r"\bx(\d+)", f_text)]
    inferred = max(indices) if indices else 0
    if n_flag is not None:
        if inferred > n_flag:
            raise ValueError(
                f"--n {n_flag} is smaller than highest variable index {inferred}"
            )
        return n_flag
    if not inferred:
        raise ValueError("cannot infer variable count; pass --n")
    return inferred


def _parse_dvec(text: str) -> tuple[int, ...]:
    try:
        dvec = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad exponent vector {text!r}; expected e.g. 2,1")
    if not dvec or any(d < 1 for d in dvec):
        raise ValueError("exponent vector entries must be >= 1")
    return dvec


def _require(cfg: RunConfig, *fields: str) -> None:
    for name in fields:
        if getattr(cfg, name) is None:
            raise ValueError(f"--{name.replace('_text', '')} is required")


def _parse_f(cfg: RunConfig) -> SparsePoly:
    if cfg.f_text is not None:
        n = _infer_n(cfg.f_text, cfg.n)
        return parse_poly(cfg.f_text, cfg.p, n)
    if cfg.dvec is not None:
        md = MonomialData(cfg.dvec)
        return md.poly(cfg.p)
    raise ValueError("either --f or --dvec is required")


def _check_size(cfg: RunConfig, work: int) -> None:
    if work > cfg.max_size:
        raise ResourceWarning(
            f"requested computation needs {work} matrix cells, "
            f"over the bound {cfg.max_size}"
        )


def _check_e(cfg: RunConfig) -> None:
    # every size gate counts at least q = p^e >= 2^e cells, so this refuses
    # nothing a gate accepts, and it runs before p^e is formed
    if cfg.e > cfg.max_size.bit_length():
        raise ResourceWarning(
            f"requested computation needs at least 2^{cfg.e} matrix cells, "
            f"over the bound {cfg.max_size}"
        )


def cmd_matrix(cfg: RunConfig) -> str:
    _require(cfg, "p", "e", "f_text")
    f = _parse_f(cfg)
    _check_e(cfg)
    basis = FrobBasis(cfg.p, cfg.e, f.n, f.names)
    _check_size(cfg, basis.size ** 2)
    m = matrix_power(f, cfg.power, basis)
    return m.to_csv() if cfg.fmt == "csv" else m.to_json()


def cmd_fsignature(cfg: RunConfig) -> str:
    _require(cfg, "target")
    closed_fn = fsignature_uv_closed if cfg.target == "uv" else fsignature_z2_closed
    if cfg.f_text is None:
        _require(cfg, "dvec")
        report = SignatureReport(
            target=cfg.target, dvec=cfg.dvec, closed_form=closed_fn(cfg.dvec)
        )
    else:
        _require(cfg, "p")
        f = _parse_f(cfg)
        emax = cfg.emax or cfg.e or 1
        # the matrix work grows with e: keep e = 1, 2, ... while it fits
        feasible = []
        for e in range(1, emax + 1):
            if (cfg.p ** e) ** (f.n + 2) > cfg.max_size:
                break
            feasible.append(e)
        if not feasible:
            raise ResourceWarning(
                f"no requested e fits the size bound {cfg.max_size}"
            )
        if len(feasible) < emax:
            print(
                f"note: truncating sweep to e <= {feasible[-1]} "
                f"(size bound {cfg.max_size})",
                file=sys.stderr,
            )
        report = empirical_sequence(
            f, cfg.p, feasible, cfg.target, max_size=cfg.max_size
        )
    return report.to_json()


def cmd_decompose(cfg: RunConfig) -> str:
    _require(cfg, "dvec", "p", "e")
    # p and e are checked before the size gate forms p^e
    check_prime(cfg.p)
    _check_e(cfg)
    md = MonomialData(cfg.dvec)
    _check_size(cfg, (cfg.p ** cfg.e) ** (md.n + 2))
    return decomposition_report(md, cfg.p, cfg.e).to_json()


def cmd_freerank(cfg: RunConfig) -> str:
    _require(cfg, "target", "p", "e")
    f = _parse_f(cfg)
    _check_e(cfg)
    basis = FrobBasis(cfg.p, cfg.e, f.n, f.names)
    _check_size(cfg, basis.size ** 2 * basis.q ** 2)
    if cfg.target == "uv":
        rank = free_rank_uv(f, basis)
    else:
        rank = free_rank_z2(f, basis)
    return json.dumps(
        {"target": cfg.target, "f": str(f), "q": basis.q, "free_rank": rank}
    )


def cmd_verify(cfg: RunConfig) -> str:
    _require(cfg, "p", "e")
    f = _parse_f(cfg)
    _check_e(cfg)
    basis = FrobBasis(cfg.p, cfg.e, f.n, f.names)
    _check_size(cfg, basis.size ** 2)
    mf = presentation_fk(f, cfg.k, basis)
    if not verify_matfac(mf.phi, mf.psi, f):
        raise ValueError("the pair is not a matrix factorization of f")
    return json.dumps(
        {"f": str(f), "q": basis.q, "k": cfg.k, "size": mf.size, "verified": True}
    )


COMMANDS = {
    "matrix": cmd_matrix,
    "fsignature": cmd_fsignature,
    "decompose": cmd_decompose,
    "freerank": cmd_freerank,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobsig",
        description="Exact Frobenius-pushforward matrices, summand "
        "decompositions, and F-signatures for hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = {
        "matrix": "build the matrix of multiplication by f^power",
        "fsignature": "closed-form and/or empirical F-signature",
        "decompose": "summand decomposition report for a monomial",
        "freerank": "free rank of the pushforward over f+uv or f+z^2",
        "verify": "check the (k, q-k) power pair is a matrix factorization",
    }
    for name, help_text in subcommands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--f", help="polynomial in x1..xn")
        cmd.add_argument("--dvec", help="monomial exponents, e.g. 2,1")
        cmd.add_argument("--p", type=int, help="prime characteristic")
        cmd.add_argument("--e", type=int, help="Frobenius iterate")
        cmd.add_argument("--emax", type=int, help="largest e for sweeps")
        cmd.add_argument("--n", type=int, help="variable count override")
        cmd.add_argument("--k", type=int, default=1, help="power index k")
        cmd.add_argument("--power", type=int, default=1, help="power of f")
        cmd.add_argument("--type", choices=("uv", "z2"), dest="target")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument(
            "--max-size",
            type=int,
            default=DEFAULT_MAX_SIZE,
            help="refuse computations needing more matrix cells than this",
        )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    for name in ("e", "emax"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1")
    return RunConfig(
        command=args.command,
        p=args.p,
        e=args.e,
        emax=args.emax,
        f_text=args.f,
        dvec=_parse_dvec(args.dvec) if args.dvec else None,
        n=args.n,
        k=args.k,
        power=args.power,
        target=args.target,
        fmt=args.format,
        max_size=args.max_size,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.p is not None and cfg.p == 2 and cfg.target == "z2":
            raise ValueError("the f+z^2 target requires p odd")
        output = COMMANDS[cfg.command](cfg)
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
