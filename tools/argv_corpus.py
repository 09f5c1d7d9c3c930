"""Run a fixed, seeded corpus of frobsig command lines and print one JSON
line per call: its argv, exit code, the sha256 of its stdout, its stderr
and ``ring.work()`` after it.

    python tools/argv_corpus.py SRC

SRC is the directory that holds the ``frobsig`` package (``src`` in a
checkout).  Every call runs in this one process through ``cli.main``, whose
count depends only on its argv.  Two checkouts behave alike on the corpus
when their outputs are identical:

    diff <(python tools/argv_corpus.py old/src) <(python tools/argv_corpus.py src)

The corpus covers all five subcommands, both targets, ``--f`` and
``--dvec``, exponents at and above q, budgets small enough to refuse,
refusals made while parsing, the meter's refusals inside one product
column and inside one remainder class, sweeps of an f that leaves
variables unused, and split f whose pairs of blocks recurse deep into the
digit rule; it runs in about 6 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys

SEED = 27

# named f of every free-rank route: closed form, split, chain, unused variable
NAMED_F = (
    "x1", "x1^3", "x1^2+x2^3", "x1^2+x1*x2+x2^3", "x1*x2+x3*x4",
    "x1^2+x2^2+x3^2", "2*x1^5*x2+x2^7", "x1^2+x2^3+x1*x2*x3", "x2^2+x3^3",
)
BUDGETS = (None, 1000, 30000, 250000)
# refused while parsing, or for f, p, e, k or the target
REFUSALS = (
    ["matrix", "--f", "x1^", "--p", "3", "--e", "1"],
    ["matrix", "--f", "3", "--p", "3", "--e", "1"],
    ["matrix", "--f", "3", "--p", "3", "--e", "1", "--n", "2"],
    ["matrix", "--f", "x1*x3", "--p", "3", "--e", "1", "--n", "2"],
    ["matrix", "--f", "x1", "--p", "4", "--e", "1"],
    ["matrix", "--f", "x1", "--p", "3", "--e", "0"],
    ["matrix", "--f", "x1", "--p", "3", "--e", "1", "--k", "1"],
    ["verify", "--f", "x1^2", "--p", "3", "--e", "1", "--k", "0"],
    ["verify", "--f", "x1^2", "--p", "3", "--e", "1", "--k", "3"],
    ["freerank", "--type", "z2", "--f", "x1", "--p", "2", "--e", "1"],
    ["freerank", "--type", "uv", "--f", "x1+1", "--p", "3", "--e", "1"],
    ["freerank", "--type", "uv", "--f", "x1", "--dvec", "1", "--p", "3", "--e", "1"],
    ["freerank", "--type", "uw", "--f", "x1", "--p", "3", "--e", "1"],
    ["fsignature", "--type", "uv", "--dvec", "2,1", "--p", "3"],
    ["fsignature", "--type", "uv", "--f", "x1^2"],
    ["decompose", "--dvec", "2,x", "--p", "3", "--e", "1"],
    ["decompose", "--dvec", "2,1", "--p", "3", "--e", "30000"],
    ["bogus"],
)
# refused by the meter inside one product column of phi * psi, and inside
# one remainder class: 121 terms of f^3 in 1023 carry entries
_X = "*".join(f"x{i}" for i in range(1, 11))
METER_REFUSALS = (
    ["verify", "--f", "+".join(f"x1^{i}" for i in range(1, 11)), "--p", "3", "--e", "5",
     "--k", "121", "--max-size", "444437"],
    ["matrix", "--f", _X + "".join(f"+{_X}*x{i}^2" for i in range(1, 11)), "--p", "2",
     "--e", "1", "--power", "3"],
)
# sweeps of an f that leaves variables unused: through --n, through skipped
# indices, with 333333 of them at the default budget, and under a budget
# that ends the sweep at e = 4
UNUSED_VARIABLES = tuple(argv.split() for argv in (
    "fsignature --type uv --f x1^2+x1*x2+x2^3 --p 3 --emax 3 --n 40",
    "fsignature --type z2 --f x1^2+x1*x2+x2^3 --p 3 --emax 3 --n 40",
    "fsignature --type uv --f x4^2+x7^3 --p 5 --emax 3",
    "fsignature --type uv --f x1^2 --p 3 --emax 3 --n 333334",
    "fsignature --type z2 --f x4^2+x7^3 --p 3 --emax 5 --max-size 100",
))

# split f at the default budget, whose pairs of blocks reach the digit
# rule's residual case with Q >= p^2
DEEP_PAIRS = tuple(argv.split() for argv in (
    "freerank --type uv --f x1^2+x2^3 --p 5 --e 6",
    "freerank --type uv --f x1^2+x2^2+x3^2+x4^2 --p 5 --e 4",
    "fsignature --type uv --f x1^2+x2^3 --p 5 --emax 9",
))


def random_f(rng: random.Random) -> str:
    """A sum of up to four nonconstant terms in up to three variables, each
    exponent at most 8, so that some reach q and some terms share remainders."""
    n = rng.randint(1, 3)
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 8) for _ in range(n)]
        exps[rng.randrange(n)] += 1
        factors = [f"x{i}^{a}" for i, a in enumerate(exps, 1) if a]
        terms.append("*".join([str(rng.randint(1, 6))] + factors))
    return "+".join(terms)


def corpus() -> list[list[str]]:
    """The argv, the same on every run."""
    rng = random.Random(SEED)
    pool = list(NAMED_F) + [random_f(rng) for _ in range(40)]

    def budget(argv):
        size = rng.choice(BUDGETS)
        return argv if size is None else argv + ["--max-size", str(size)]

    calls = [list(argv) for argv in REFUSALS]
    for f in pool:
        for p, e in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)):
            power = rng.choice((1, 1, 2, 7, 13, 200000))
            fmt = rng.choice(("json", "csv"))
            calls.append(budget(["matrix", "--f", f, "--p", str(p), "--e", str(e),
                                 "--power", str(power), "--format", fmt]))
            calls.append(budget(["verify", "--f", f, "--p", str(p), "--e", str(e),
                                 "--k", str(rng.randint(1, p ** e - 1))]))
        for p in (2, 3, 5, 7):
            for target in ("uv", "z2"):
                e = rng.randint(1, 3)
                calls.append(budget(["freerank", "--type", target, "--f", f,
                                     "--p", str(p), "--e", str(e)]))
        target = rng.choice(("uv", "z2"))
        calls.append(budget(["fsignature", "--type", target, "--f", f,
                             "--p", rng.choice(("3", "5")),
                             "--emax", str(rng.randint(1, 4))]))
    for _ in range(24):
        dvec = ",".join(str(rng.randint(1, 5)) for _ in range(rng.randint(1, 3)))
        p, e = str(rng.choice((2, 3, 5, 7))), str(rng.randint(1, 3))
        calls.append(budget(["decompose", "--dvec", dvec, "--p", p, "--e", e]))
        calls.append(budget(["freerank", "--type", rng.choice(("uv", "z2")),
                             "--dvec", dvec, "--p", p, "--e", e]))
        calls.append(["fsignature", "--type", rng.choice(("uv", "z2")), "--dvec", dvec])
        calls.append(budget(["verify", "--dvec", dvec, "--p", p, "--e", "1", "--k", "1"]))
    extra = METER_REFUSALS + UNUSED_VARIABLES + DEEP_PAIRS
    return calls + [list(argv) for argv in extra]


def record(cli, ring, argv: list[str]) -> dict:
    """Run one argv through ``cli.main`` and describe what it did."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "work": ring.work(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the frobsig package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from frobsig import cli, ring

    for call in corpus():
        print(json.dumps(record(cli, ring, call)), flush=True)


if __name__ == "__main__":
    main()
