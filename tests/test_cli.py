import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from frobsig import ring
from frobsig.cli import SUBCOMMANDS, main
from frobsig.hypersurface import free_rank_uv
from frobsig.monomial import MonomialData, decomposition_report
from frobsig.ring import FrobBasis, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_worked_example(capsys):
    code, out, _ = run(capsys, "matrix", "--f", "x1^2+x1*x2", "--p", "3", "--e", "1")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == data["cols"] == 9
    assert ["0", "1", "x1"] == [str(v) for v in data["entries"][0]]
    assert [8, 6, "1"] == data["entries"][-1]


def test_matrix_identity_with_n_flag(capsys):
    code, out, _ = run(capsys, "matrix", "--f", "1", "--p", "3", "--e", "1", "--n", "1")
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]]


def test_matrix_power_flag_equals_explicit_power(capsys):
    _, out1, _ = run(
        capsys, "matrix", "--f", "x1", "--p", "3", "--e", "2", "--power", "4"
    )
    _, out2, _ = run(capsys, "matrix", "--f", "x1^4", "--p", "3", "--e", "2")
    assert out1 == out2


def test_matrix_csv_format(capsys):
    code, out, _ = run(
        capsys, "matrix", "--f", "x1^2", "--p", "3", "--e", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "row,col,entry"


def test_matrix_deterministic(capsys):
    args = ("matrix", "--f", "x1^2+x2", "--p", "3", "--e", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_fsignature_closed_uv(capsys):
    code, out, _ = run(capsys, "fsignature", "--type", "uv", "--dvec", "2,1")
    assert code == 0
    assert json.loads(out)["closed_form"] == "5/12"


def test_fsignature_closed_z2(capsys):
    code, out, _ = run(capsys, "fsignature", "--type", "z2", "--dvec", "1,1")
    assert code == 0
    assert json.loads(out)["closed_form"] == "1/2"


def test_fsignature_empirical(capsys):
    code, out, _ = run(
        capsys, "fsignature", "--type", "uv", "--f", "x1^2", "--p", "5", "--emax", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["empirical"][0] == {"e": 1, "s": "13/25"}
    assert data["closed_form"] == "1/2"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--dvec", "2", "--p", "3", "--e", "1")
    assert code == 0
    data = json.loads(out)
    assert data["free_rank"] == 5
    assert data["summands"] == [{"c": [1], "multiplicity": 4}]


def test_freerank_z2(capsys):
    code, out, _ = run(
        capsys, "freerank", "--type", "z2", "--f", "x1^3", "--p", "3", "--e", "1"
    )
    assert code == 0
    assert json.loads(out)["free_rank"] == 0


def test_freerank_uv(capsys):
    code, out, _ = run(
        capsys, "freerank", "--type", "uv", "--f", "x1^2", "--p", "3", "--e", "1"
    )
    assert code == 0
    assert json.loads(out)["free_rank"] == 5


def test_verify(capsys):
    code, out, _ = run(
        capsys, "verify", "--f", "x1^2", "--p", "3", "--e", "1", "--k", "1"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_huge_exponent(capsys):
    # exponents past 2^64 get wide bit fields in the product
    code, out, err = run(capsys, "verify", "--f", "x1^99999999999999999999+x2^2",
                         "--p", "3", "--e", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"f": "x1^99999999999999999999 + x2^2", "q": 3,
                               "k": 1, "size": 9, "verified": True}


def test_leading_minus_in_f(capsys):
    # argparse takes "-x1" for an option, so the refusal says how to pass it
    code, out, err = run(capsys, "verify", "--f", "-x1", "--p", "3", "--e", "1")
    assert (code, out) == (2, "")
    assert err == ("error: argument --f: expected one argument "
                   "(write an f that starts with '-' as --f=-x1)\n")
    code, out, err = run(capsys, "verify", "--f=-x1", "--p", "3", "--e", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["f"] == "2*x1"
    # a missing value is not an f that starts with '-'
    code, out, err = run(capsys, "verify", "--f", "--p", "3", "--e", "1")
    assert (code, out) == (2, "")
    assert err == "error: argument --f: expected one argument\n"


def test_validation_exit_code(capsys):
    code, out, err = run(capsys, "matrix", "--f", "x1 +", "--p", "3", "--e", "1")
    assert code == 2
    assert out == "" and "error" in err
    code, _, _ = run(capsys, "matrix", "--f", "x1", "--p", "4", "--e", "1")
    assert code == 2
    code, _, err = run(capsys, "freerank", "--type", "z2", "--f", "x1", "--p", "2", "--e", "1")
    assert (code, err) == (2, "error: the f+z^2 target requires p odd\n")


def test_decompose_refuses_non_prime_p(capsys):
    for p in ("4", "9"):
        code, out, err = run(capsys, "decompose", "--dvec", "2", "--p", p, "--e", "1")
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: modulus {p} is not a prime number"


def test_huge_prime_refused_quickly():
    # primality of an 18-digit p is settled by Miller-Rabin, then the size
    # gate refuses; above 3.3 * 10^24 p is refused as uncertifiable
    cases = (("1000000000000000003", 3), ("10000000000000000000000000", 2))
    for p, want in cases:
        result = subprocess.run(
            [sys.executable, "-m", "frobsig.cli", "matrix", "--f", "x1",
             "--p", p, "--e", "1"],
            env=_env_with_src(), capture_output=True, text=True, timeout=2,
        )
        assert result.returncode == want
        assert result.stdout == ""
        assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, want",
    [
        ("matrix --f x1 --p 3 --e 30000000", 3),
        ("decompose --dvec 2,1 --p 3 --e 30000000", 3),
        ("freerank --type uv --f x1^2 --p 3 --e 30000000", 3),
        ("verify --f x1^2 --p 3 --e 30000000", 3),
        ("fsignature --type uv --f x1^2 --p 3 --emax 0", 2),
        ("fsignature --type uv --f x1^2 --p 3 --emax -5", 2),
        ("fsignature --type uv --f x1^2 --p 3 --e 0", 2),
        ("decompose --dvec 2,1 --p 3 --e 0", 2),
        ("decompose --dvec 2,1 --p 3 --e -1", 2),
        ("matrix --f x1 --p 3 --e 0", 2),
        ("freerank --type uv --f x1^2 --p 3 --e -1", 2),
        # the sweep stops at the first e over the size bound, with one note
        ("fsignature --type uv --f x1^2 --p 3 --emax 300000000", 0),
    ],
)
def test_e_and_emax_bounded(argv, want):
    result = subprocess.run(
        [sys.executable, "-m", "frobsig.cli", *argv.split()],
        env=_env_with_src(), capture_output=True, text=True, timeout=2,
    )
    assert result.returncode == want
    assert len(result.stderr.strip().splitlines()) == 1
    if want:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
    else:
        # x1^2 is a closed form whose dims at e = 13 pass the budget
        assert result.stderr.startswith("note: truncating sweep to e <= 12")
        assert [r["e"] for r in json.loads(result.stdout)["empirical"]] == list(range(1, 13))


def test_fsignature_closed_form_many_variables():
    # W_j by recurrence: 30 variables take well under the time limit
    result = subprocess.run(
        [sys.executable, "-m", "frobsig.cli", "fsignature", "--type", "uv",
         "--dvec", ",".join(["1"] * 30)],
        env=_env_with_src(), capture_output=True, text=True, timeout=2,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["closed_form"] == "2/31"


def test_resource_exit_code(capsys):
    # M(x1, 13) has 3^13 columns, a character or more each: about 40 MB
    code, _, err = run(capsys, "matrix", "--f", "x1", "--p", "3", "--e", "13")
    assert code == 3
    assert "bound" in err


def test_max_size_flag(capsys):
    code, _, _ = run(
        capsys,
        "matrix", "--f", "x1", "--p", "3", "--e", "2", "--max-size", "10",
    )
    assert code == 3


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "fsignature", "--dvec", "2,1")
    assert code == 2
    code, _, _ = run(capsys, "decompose", "--p", "3", "--e", "1")
    assert code == 2


def test_bad_dvec(capsys):
    code, _, _ = run(capsys, "decompose", "--dvec", "2,x", "--p", "3", "--e", "1")
    assert code == 2
    code, _, _ = run(capsys, "decompose", "--dvec", "0", "--p", "3", "--e", "1")
    assert code == 2


def test_unit_f_refused_on_free_rank_paths(capsys):
    # f = 1 + x1 is a unit of the local ring: no free rank to report
    reason = "f must vanish at the origin (f(0) != 0 makes f a unit)"
    for argv in (
        ("freerank", "--type", "uv", "--f", "1+x1", "--p", "3", "--e", "1"),
        ("freerank", "--type", "z2", "--f", "1+x1", "--p", "3", "--e", "1"),
        ("fsignature", "--type", "uv", "--f", "1+x1", "--p", "3", "--emax", "1"),
        # past the size bound: no truncation note before the refusal
        ("fsignature", "--type", "uv", "--f", "1+x1", "--p", "3", "--emax", "30"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: {reason}"
    # the pair (M(f), M(f^2)) still factors f, so verify accepts it
    code, out, _ = run(capsys, "verify", "--f", "1+x1", "--p", "3", "--e", "1")
    assert code == 0
    assert json.loads(out)["verified"] is True


def _env_with_src():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_loads_no_sympy():
    # start-up cost: importing the CLI must not pull in sympy
    code = "import sys, frobsig.cli; print('sympy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "frobsig.cli", *argv],
        env=_env_with_src(), capture_output=True, text=True, timeout=2,
    )


def _assert_one_line_refusal(result, want):
    assert result.returncode == want
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # a flag the subcommand does not declare
        "freerank --type uv --f x1^2 --p 3 --e 1 --power 9",
        "decompose --f x1^7 --dvec 2 --p 3 --e 1",
        # --f together with --dvec
        "freerank --type uv --f x1^2 --dvec 2 --p 3 --e 1",
        # usage errors: bad type, missing flags, unknown subcommand
        "matrix --f x1 --p abc --e 1",
        "fsignature --dvec 2,1",
        "verify --p 3 --e 1",
        "frobnicate --p 3 --e 1",
        "matrix --f x1 --p 3 --e 1 --power -2",
        "matrix --f 1 --p 3 --e 1 --n -5",
        # --max-size is an integer >= 1 on every subcommand
        "matrix --f x1 --p 3 --e 1 --max-size -5",
        "matrix --f x1 --p 3 --e 1 --max-size 0",
        "fsignature --type uv --dvec 2,1 --max-size -5",
        "fsignature --type uv --dvec 2,1 --max-size 0",
    ],
)
def test_usage_errors_exit_2_in_one_line(argv):
    _assert_one_line_refusal(_cli(*argv.split()), 2)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        ("freerank --type uv --f x1^2 --p 3 --e 1 --n 10000", 2),
        ("freerank --type uv --f x1^2 --p 3 --e 1 --n 30000", 2),
        ("freerank --type uv --f x1^2 --p 3 --e 1 --n 100000000", 3),
        (f"decompose --dvec {','.join(['1'] * 20000)} --p 3 --e 1", 3),
    ],
    ids=["n-10000", "n-30000", "n-10^8", "decompose-20000-ones"],
)
def test_oversized_variable_count_refused_before_any_ring(argv, exit_code):
    # the work of n variables exceeds --max-size: decompose's 2^n labels
    # before any ring, and the parser's n exponents a term before f is
    # parsed; unused variables only scale a free rank's counts by q^u, so
    # x1^2 in 10^4 variables is cheap, but its free rank has more digits
    # than Python prints
    _assert_one_line_refusal(_cli(*argv.split()), exit_code)


def test_fsignature_closed_form_thousand_entries():
    # dvec (1,2)*500: d = 2, and W_s = 2^500 * C(500, s), since a 2 in J
    # contributes d - 2 = 0 and every 1 contributes 1 in or out of J
    result = _cli("fsignature", "--type", "uv", "--dvec", ",".join(["1,2"] * 500))
    assert result.returncode == 0
    total = sum(Fraction(2 ** 500 * comb(500, s), 1001 - s) for s in range(501))
    want = Fraction(2, 2 ** 1001) * total
    assert json.loads(result.stdout)["closed_form"] == str(want)


# an 8-term f whose powers have many terms: verify's product multiplies
# each term of a column of M(f^(q-k), e) by each term of a column of M(f^k, e)
_F8 = "x1^2+x1*x2+x2^3+2*x1^2*x2+x1*x2^2+3*x1^3+x1^4+x2^4"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--f", _F8, "--p", "5", "--e", "2", "--k", "12"],
        ["verify", "--f", _F8, "--p", "31", "--e", "1", "--k", "15"],
        ["fsignature", "--type", "uv", "--dvec", ",".join(["1,2"] * 4000)],
        ["fsignature", "--type", "uv", "--p", "3",
         "--f", "*".join(f"x{i}" for i in range(1, 4001))],
    ],
    ids=["verify-p5-e2", "verify-p31-e1", "closed-form-dvec", "closed-form-monomial-f"],
)
def test_slow_products_and_closed_forms_refused_in_one_line(capsys, argv):
    # each ran for seconds to minutes at the default --max-size, admitted by
    # its q^(2n) cells alone or not priced at all
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: computation passed its bound of ")
    assert len(err.strip().splitlines()) == 1


def test_readme_command_line_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```")[0]
    calls = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("frobsig ")]
    assert len(calls) >= 7
    for call in calls:
        result = _cli(*call[1:])
        assert result.returncode == 0, (call, result.stderr)


@pytest.mark.parametrize(
    "f, reason",
    [
        # the number 2 followed by x1, with no operator between them
        ("2x1", "expected '+' between terms, found 'x1'"),
        ("x0", "variable index 0 out of range 1..1"),
        ("u", "variable 'u' is reserved for ring extensions"),
        # a text that names no variable is parsed before --n is asked for
        ("", "empty polynomial expression"),
        ("+", "dangling sign at end of polynomial"),
        ("-", "dangling sign at end of polynomial"),
        ("*", "unexpected token '*' in polynomial"),
    ],
)
@pytest.mark.parametrize("extra", [(), ("--n", "1")], ids=["inferred-n", "n-flag"])
def test_malformed_f_gets_the_parser_message(capsys, f, reason, extra):
    code, out, err = run(capsys, "matrix", "--f", f, "--p", "3", "--e", "1", *extra)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {reason}"


def test_decompose_gate_counts_eta_terms(capsys):
    # the report ticks each of at most 2^n eta labels for each k < q
    argv = ("decompose", "--dvec", "24,24,24", "--p", "5", "--e", "2")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--max-size", str(10 ** 12)) == (0, out, "")
    # 3^12 values of k, each with 2 or 4 labels, pass the default budget
    code, out, err = run(capsys, "decompose", "--dvec", "2,1", "--p", "3", "--e", "12")
    assert (code, out) == (3, "")
    assert err.strip() == "error: computation passed its bound of 1000000 units of work"


BASE_MODULES = {"frobsig", "frobsig.cli", "frobsig.hypersurface", "frobsig.ring"}


def _modules_after(code):
    """frobsig modules and dataclasses loaded by ``code`` in a fresh interpreter."""
    code += (
        "\nimport sys\nprint(*(m for m in sys.modules"
        " if m.startswith('frobsig') or m == 'dataclasses'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True,
        text=True, timeout=10,
    )
    lines = result.stdout.splitlines()
    return lines[:-1], set(lines[-1].split())


@pytest.mark.parametrize(
    "argv, exit_code, added",
    [
        (None, None, set()),  # import frobsig.cli alone
        ("freerank --type z2 --f x1^2 --p 2 --e 1", 2, set()),  # refused
        ("freerank --type uv --f x1*x2 --p 3 --e 1", 0, set()),
        ("matrix --f x1^2+x1*x2 --p 3 --e 1", 0, {"frobsig.frobenius"}),
        # refused for its size or for its f, before the matrix route loads
        ("matrix --f x1^2+x2 --p 3 --e 2 --max-size 10", 3, set()),
        ("matrix --f x1*u --p 3 --e 1", 2, set()),
        ("fsignature --type uv --dvec 2,1", 0, {"frobsig.fsig"}),
        ("decompose --dvec 2 --p 3 --e 1", 0, {"frobsig.monomial"}),
        # a monomial f is built from its exponents, without frobsig.monomial
        ("freerank --type uv --dvec 2,1 --p 3 --e 1", 0, set()),
        ("verify --dvec 2,1 --p 3 --e 1", 0, {"frobsig.frobenius", "frobsig.matfac"}),
        ("fsignature --type uv --f x1^2*x2 --p 5 --emax 2", 0, {"frobsig.fsig"}),
    ],
    ids=["import", "p2-refusal", "freerank", "matrix", "matrix-size-refusal",
         "matrix-parse-refusal", "fsignature-closed", "decompose", "freerank-dvec",
         "verify-dvec", "fsignature-monomial"],
)
def test_each_call_loads_only_its_route(argv, exit_code, added):
    # start-up cost: a fresh interpreter runs one call, then lists its modules;
    # no route loads dataclasses, whose import pulls in inspect
    code = "import frobsig.cli"
    if argv:
        code += f"\nprint(frobsig.cli.main({argv.split()!r}))"
    printed, loaded = _modules_after(code)
    if argv:
        assert printed[-1] == str(exit_code)
    assert loaded == BASE_MODULES | added


def test_frobbasis_loads_only_ring():
    # the free ranks need the basis, not the matrices of frobsig.frobenius
    _, loaded = _modules_after("import frobsig\nfrobsig.FrobBasis")
    assert loaded == {"frobsig", "frobsig.ring"}


def test_freerank_prices_the_chain_like_fsignature(capsys):
    # both count the same work against the same budget: x1^2 + x2^3 is two
    # closed forms and a pair step, so each reaches e = 11, where s_11 = 5/9
    # = 5 * 3^31 / 3^(3*11), and not e = 12; neither walks a chain
    code, out, err = run(capsys, "freerank", "--type", "uv", "--f", "x1^2+x2^3",
                         "--p", "3", "--e", "11")
    assert (code, err) == (0, "")
    assert json.loads(out)["free_rank"] == 5 * 3 ** 31
    code, out, err = run(capsys, "fsignature", "--type", "uv", "--f", "x1^2+x2^3",
                         "--p", "3", "--emax", "12")
    assert code == 0
    assert json.loads(out)["empirical"][10] == {"e": 11, "s": "5/9"}
    assert err == "note: truncating sweep to e <= 11 (size bound 1000000)\n"
    # the refusal names the budget it passed
    code, _, err = run(capsys, "freerank", "--type", "uv", "--f", "x1^2+x2^3",
                       "--p", "3", "--e", "12")
    assert code == 3
    assert err.strip() == "error: computation passed its bound of 1000000 units of work"


# FOUND 18's f: it splits into a chain on {x1, x2} and one on {x3, x4, x5}
_SPLIT_5 = "x1^2+x2^2+x3^2+x4^2+x5^2+x1*x2+x3*x4+x4*x5"
_CONNECTED_4 = "x1^2+x2^2+x3^2+x4^2+x1*x2+x2*x3+x3*x4"


@pytest.mark.parametrize(
    "argv, rank",
    [
        ("--type uv --f x1^2+x2^3 --p 3 --e 4", 295245),
        ("--type uv --f x1^2+x1*x2+x2^3 --p 5 --e 2", 10425),
        (f"--type uv --f {_SPLIT_5} --p 7 --e 1", 107601),
        # a homogeneous chain on 3 variables, about 0.3 s
        ("--type uv --f x1^2+x2^2+x3^2+x1*x2+x2*x3 --p 11 --e 1", 11601),
    ],
)
def test_gate_admits_what_runs_fast(capsys, argv, rank):
    # each counts the work of the route it runs, not q^(n+2)
    code, out, err = run(capsys, "freerank", *argv.split())
    assert (code, err) == (0, "")
    assert json.loads(out)["free_rank"] == rank


def test_gate_does_not_truncate_a_split_sweep(capsys):
    code, out, err = run(capsys, "fsignature", "--type", "uv", "--f", "x1^2+x2^3",
                         "--p", "3", "--emax", "8")
    assert (code, err) == (0, "")
    assert json.loads(out)["empirical"] == [{"e": e, "s": "5/9"} for e in range(1, 9)]


@pytest.mark.parametrize(
    "argv",
    [
        f"freerank --type uv --f {_CONNECTED_4} --p 3 --e 2",
        "freerank --type uv --f x1^2+x2^2+x3^2+x4^2 --p 5 --e 4",
        # seven terms and two degrees on 3 variables: about 2.6 s
        "freerank --type uv --f x1^2+x2^2+x3^2+x1*x2+x2*x3+x1*x3+x1^3 --p 11 --e 1",
        # squaring in A, then two eliminations that ran past 8 minutes
        "freerank --type z2 --f x1^2+x1*x2+x2^3+2*x1^2*x2+x1*x2^2+3*x1^3+x1^4+x2^4 "
        "--p 13 --e 2",
    ],
    ids=["connected-4", "sum-of-4-squares", "seven-terms", "z2-squaring"],
)
def test_gate_refuses_what_runs_slow(argv):
    _assert_one_line_refusal(_cli(*argv.split()), 3)


def test_matrix_refuses_what_it_would_print():
    # 30375 cells, each entry a sum of terms with exponents of 4300 digits:
    # it printed 183 MB in 15.6 s, and is now refused once its printed
    # characters pass the budget
    big, twice = "1" + "0" * (_LIMIT - 2), "2" + "0" * (_LIMIT - 2)
    f = f"x1^{big}+x1^{twice}+x2^{big}+x2^{twice}+x1^{big}*x2^{big}"
    argv = ["matrix", "--f", f, "--p", "3", "--e", "2", "--power", "100"]
    _assert_one_line_refusal(_cli(*argv), 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_prints_within_its_bound(capsys, seed):
    # a matrix call admitted at --max-size B prints at most B characters: one
    # character less than it prints is refused
    rng = random.Random(seed)
    for _ in range(12):
        f = rng.choice(["x1", "x1^2+x2^3", "x1^2+x1*x2+x2^3", "2*x1^5*x2+x2^7",
                        "x1^3+x2^2+x3^2+x1*x3", "x1^100+x2"])
        argv = ["matrix", "--f", f, "--p", str(rng.choice([2, 3, 5])),
                "--e", str(rng.randint(1, 2)), "--power", str(rng.randint(1, 60)),
                "--format", rng.choice(["json", "csv"])]
        code, out, err = run(capsys, *argv, "--max-size", str(10 ** 12))
        assert (code, err) == (0, ""), argv
        assert run(capsys, *argv, "--max-size", str(len(out) - 1))[0] == 3, argv


@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_prints_within_its_bound(capsys, seed):
    # a decompose call admitted at --max-size B prints at most B characters
    rng = random.Random(seed)
    for _ in range(12):
        dvec = ",".join(str(rng.randint(1, 30)) for _ in range(rng.randint(1, 4)))
        argv = ["decompose", "--dvec", dvec, "--p", str(rng.choice([2, 3, 5, 7])),
                "--e", str(rng.randint(1, 2))]
        code, out, err = run(capsys, *argv, "--max-size", str(10 ** 12))
        assert (code, err) == (0, ""), argv
        assert run(capsys, *argv, "--max-size", str(len(out) - 1))[0] == 3, argv


@pytest.mark.parametrize(
    "argv",
    [
        "matrix --f x1^2+x2^3 --p 7 --e 2",
        "matrix --f x1 --n 3 --p 11 --e 1",
        "verify --f x1^2+x2^3 --p 7 --e 2 --k 1",
    ],
)
def test_gate_admits_matrices_by_what_they_form(capsys, argv):
    # each was refused for the q^(2n) cells of a dense matrix no route forms
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert run(capsys, *argv.split(), "--max-size", str(10 ** 12)) == (0, out, "")


def test_unused_variables_only_scale_the_counts(capsys):
    # x1^2 in 14 variables: the free rank of x1^2 at q = 3, which is 5, times
    # 3^13, once refused for a price of 3^13
    code, out, err = run(capsys, "freerank", "--type", "uv", "--f", "x1^2",
                         "--n", "14", "--p", "3", "--e", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["free_rank"] == 5 * 3 ** 13
    # s_e = free rank / q^(n+1) does not depend on n: 2000 variables give the
    # sweep of one, once refused at any --max-size below 3^1999
    argv = ["fsignature", "--type", "uv", "--f", "x1^2", "--p", "3", "--emax", "3"]
    code, out, err = run(capsys, *argv, "--n", "2000")
    assert (code, err) == (0, "")
    _, one, _ = run(capsys, *argv)
    assert json.loads(out)["empirical"] == json.loads(one)["empirical"]
    assert [r["s"] for r in json.loads(one)["empirical"]] == ["5/9", "41/81", "365/729"]
    # but the counts are scaled by q^u, and s_e is reduced in time quadratic
    # in its bits: with 333333 unused variables the bits of q^n at e = 3
    # pass the budget and the sweep stops at e = 2
    code, out, err = run(capsys, *argv, "--n", "333334")
    assert err == "note: truncating sweep to e <= 2 (size bound 1000000)\n"
    assert json.loads(out)["empirical"] == json.loads(one)["empirical"][:2]


@pytest.mark.parametrize(
    "argv",
    [
        # columns of M(x1, 1) without a product: 1.67 s
        "verify --f x1 --p 99991 --e 1 --k 1",
        "verify --f x1*x2 --p 7 --e 3 --k 1",  # 1.9 s
        # 18 exponents a term in 2^18 columns: 5.6 s and 451 MB
        "verify --f x1 --n 18 --p 2 --e 1 --k 1",
        "matrix --f x1 --n 18 --p 2 --e 1",  # 5.9 MB in 2.3 s
        # 13 factors for each of 925696 eta terms: 7.5 s
        f"decompose --dvec {','.join(['1'] * 13)} --p 113 --e 1",
        # 393216 eta terms of 17 factors, printing 21.3 and 10.7 MB
        f"decompose --dvec {','.join(['2'] * 17)} --p 3 --e 1",
        f"decompose --dvec {','.join(['1'] * 17)} --p 3 --e 1",
    ],
    ids=["verify-columns", "verify-x1x2", "verify-n18", "matrix-n18",
         "decompose-13-ones", "decompose-17-twos", "decompose-17-ones"],
)
def test_gate_refuses_by_what_a_call_forms(capsys, argv):
    # each takes seconds when admitted
    start = time.monotonic()
    code, out, err = run(capsys, *argv.split())
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: computation passed its bound of ")
    assert len(err.strip().splitlines()) == 1


def test_free_rank_past_the_digit_limit_refused_in_one_line(capsys):
    # a monomial in 9100 variables is a cheap closed form whose free rank,
    # above 3^9100, has more digits than int() converts
    f = "*".join(f"x{i}" for i in range(1, 9101))
    code, out, err = run(capsys, "freerank", "--type", "uv", "--f", f, "--p", "3",
                         "--e", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: the free rank has too many digits to print "
                   f"(limit {_LIMIT})\n")


_FREE_RANK_F = ["x1^2", "x1^2+x2^3", "x1^3+x2^5", "x1*x2+x3^2", "x1^2*x2+x3^3",
                "x1^2+x2^2+x3^2+x4^2", "x1^2+x1*x2+x2^3", "x1^3+x2^2+x3^2+x1*x3",
                "x1^2+x2^2+x3^2+x1*x2+x2*x3", "x1*x2+x2*x3+x3*x4+x4^2+x1^3",
                "x1^2+x2^2+x3^2+x1*x2+x2*x3+x1*x3+x1^3", _CONNECTED_4, _SPLIT_5]


@pytest.mark.parametrize("seed", [0, 1])
def test_admitted_free_ranks_end_in_bounded_time(capsys, seed):
    # seeded freerank and fsignature --f calls at the default --max-size, with
    # e and emax up to 4: every call the gate admits ends within 2 s
    rng = random.Random(seed)
    admitted = 0
    for _ in range(40):
        command, flag = rng.choice([("freerank", "--e"), ("fsignature", "--emax")])
        argv = [command, "--type", rng.choice(["uv", "z2"]),
                "--f", rng.choice(_FREE_RANK_F), "--p", str(rng.choice([3, 5, 7, 11, 13])),
                flag, str(rng.randint(1, 4))]
        start = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert code in (0, 3), argv
        if code == 0:
            admitted += 1
            assert elapsed < 2.0, (argv, elapsed)
    assert admitted >= 20


def test_large_power_runs_in_bounded_time():
    # f^k is built from the base-p digits of k, never from f^(2^j)
    result = _cli("matrix", "--f", "x1^2+x1*x2", "--p", "3", "--e", "1",
                  "--power", "200000")
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["rows"] == 9


def test_power_gate_counts_the_terms_of_f_to_the_k(capsys):
    # (x1 + x2)^k over F_3 has prod_i (k_i + 1) terms for the base-3 digits
    # k_i of k, 9 for k = 8 and 27 for k = 26, in each of the 9 columns of
    # M(f^k, 1): the meter counts each term as it is placed and printed
    argv = ("matrix", "--f", "x1+x2", "--p", "3", "--e", "1", "--power")
    counts = {}
    for k in ("8", "26"):
        code, out, err = run(capsys, *argv, k, "--max-size", str(10 ** 12))
        assert (code, err) == (0, "")
        counts[k] = ring.work()
        assert len(out) <= counts[k]
    assert counts["26"] > 2 * counts["8"]
    code, out, err = run(capsys, *argv, "26", "--max-size", str(counts["8"]))
    assert (code, out) == (3, "")
    assert err.strip() == (
        f"error: computation passed its bound of {counts['8']} units of work"
    )


@pytest.mark.parametrize(
    "argv",
    [
        "freerank --type uv --dvec 2,1 --p 3 --e 1 --n 1",
        "verify --dvec 2,1 --p 3 --e 1 --n 7",
        "fsignature --type uv --dvec 2,1 --n 2",
    ],
)
def test_n_with_dvec_refused(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.strip() == "error: --n applies only with --f, not with --dvec"


@pytest.mark.parametrize(
    "argv",
    [
        # --e is not a spelling of --emax, whole or abbreviated
        "fsignature --type uv --f x1^2 --p 3 --e 2 --emax 3",
        "fsignature --type uv --f x1^2 --p 3 --e 2",
        "matrix --f x1 --p 3 --e 1 --max 5",
    ],
)
def test_flags_are_spelled_out(argv):
    _assert_one_line_refusal(_cli(*argv.split()), 2)


def test_readme_flag_lists_match_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    from frobsig.cli import SUBCOMMANDS

    listed = dict(re.findall(r"^- `(\w+)`: `([^`]*)`$", section, re.MULTILINE))
    assert listed == {name: flags for name, (_, _, flags) in SUBCOMMANDS.items()}


def test_variable_disjoint_f_splits_before_the_chain():
    # {x1, x2} and {x3, x4, x5} share no term, so the chain runs on at most
    # 7^3 monomials, not on all 7^5; 107601 is the free rank that the chain
    # on the whole of F_7[x]/(x_1^7..x_5^7) gives
    f = "x1^2+x2^2+x3^2+x4^2+x5^2+x1*x2+x3*x4+x4*x5"
    result = subprocess.run(
        [sys.executable, "-m", "frobsig.cli", "freerank", "--type", "uv",
         "--f", f, "--p", "7", "--e", "1"],
        env=_env_with_src(), capture_output=True, text=True, timeout=5,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["free_rank"] == 107601


@pytest.mark.parametrize(
    "argv",
    [
        "fsignature --type uv --dvec 2,1 --p 4",
        "fsignature --type uv --dvec 2,1 --p 3",
        "fsignature --type z2 --dvec 1,1 --p 5 --emax 2",
        "fsignature --type uv --dvec 2,1 --emax 3",
    ],
)
def test_p_with_dvec_refused_on_fsignature(capsys, argv):
    # the closed form reads no p and sweeps no e, so either would be ignored
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    flag = "--p" if "--p" in argv.split() else "--emax"
    assert err.strip() == f"error: {flag} applies only with --f, not with --dvec"


# well-formed and malformed values for each flag; "--max" abbreviates and
# "--bogus" names no flag.  f has at most 3 variables, e is at most 2 and
# --power at most 26, which keeps the calls short.
FUZZ_VALUES = {
    "--f": (["x1", "x1^2", "x1^3", "x1*x2", "x1^2+x2^3", "x1^2+x1*x2+x2^3",
             "x1^3+x2^2+x3^2+x1*x3", "x1^2*x2+x3^4", "-x1^2+x2", "x1^100"],
            ["1+x1", "1", "0", "2x1", "x1^", "x0", "u+x1", "x1**2", "x1+*x2", ""]),
    "--dvec": (["2,1", "1,1", "3", "1,2,3", "24,24,24"],
               ["2,0", "1,,2", "a", "-1", ""]),
    "--p": (["2", "3", "5", "7", "97"], ["4", "1", "0", "-3", "x", "1" + "0" * 30]),
    "--e": (["1", "2"], ["0", "-1", "30000000", "x"]),
    "--emax": (["1", "2", "30"], ["0", "-5", "300000000", "y"]),
    "--n": (["1", "2", "3"], ["0", "40", "z"]),
    "--k": (["1", "2", "4"], ["0", "-1", "big"]),
    "--power": (["1", "2", "7", "26"], ["0", "p"]),
    "--type": (["uv", "z2"], ["xy", ""]),
    "--format": (["json", "csv"], ["xml"]),
    "--max-size": (["100", "1000000"], ["1", "0", "-5", "1e6"]),
    "--max": ([], ["5"]),
    "--bogus": ([], ["1"]),
}


def _fuzz_argv(rng):
    command = rng.choice([*SUBCOMMANDS, *SUBCOMMANDS, "bogus", None])
    if command in SUBCOMMANDS and rng.random() < 0.7:
        # mostly well-formed: each required flag, one of --f and --dvec, and
        # each optional flag at random
        flags = []
        for flag in SUBCOMMANDS[command][2].split():
            alts = flag.rstrip("!").split("|")
            if flag.endswith("!") or len(alts) > 1 or rng.random() < 0.4:
                flags.append("--" + rng.choice(alts))
    else:
        flags = rng.sample(sorted(FUZZ_VALUES), rng.randint(0, 5))
    argv = [command] if command else []
    for flag in flags:
        argv.append(flag)
        good, bad = FUZZ_VALUES[flag]
        if rng.random() < 0.95:
            argv.append(rng.choice(good if good and rng.random() < 0.9 else bad))
    return argv


@pytest.mark.parametrize("seed", [0, 1])
def test_random_argv_exit_cleanly(capsys, seed):
    # every call answers (0) or refuses with one "error: " line (2 or 3), in
    # bounded time and with no exception escaping main
    rng = random.Random(seed)
    for _ in range(200):
        argv = _fuzz_argv(rng)
        start = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - start
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), argv
        assert elapsed < 2.0, (argv, elapsed)
        if code:
            assert out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        else:
            assert out.endswith("\n"), argv
            assert err == "" or err.startswith("note: truncating sweep"), (argv, err)


# an integer with more digits than int() converts, in each place a call
# reads one: each gets one refusal that names the limit, which stays as it is
_LIMIT = sys.get_int_max_str_digits()
_LONG = "9" * (_LIMIT + 100)


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("matrix --f {}*x1 --p 3 --e 1", None),
        ("matrix --f x1^{} --p 3 --e 1", None),
        ("matrix --f x{} --p 3 --e 1", None),
        ("matrix --f x1 --p {} --e 1", "--p"),
        ("matrix --f x1 --p 3 --e {}", "--e"),
        ("fsignature --type uv --f x1 --p 3 --emax {}", "--emax"),
        ("matrix --f x1 --p 3 --e 1 --n {}", "--n"),
        ("matrix --f x1 --p 3 --e 1 --power {}", "--power"),
        ("matrix --f x1 --p 3 --e 1 --max-size {}", "--max-size"),
        ("verify --f x1 --p 3 --e 1 --k {}", "--k"),
        ("decompose --dvec 2,{} --p 3 --e 1", "--dvec"),
    ],
    ids=["f-coefficient", "f-exponent", "f-variable", "p", "e", "emax", "n",
         "power", "max-size", "k", "dvec"],
)
def test_integer_past_the_digit_limit_refused_in_one_line(capsys, argv, flag):
    code, out, err = run(capsys, *argv.format(_LONG).split())
    where = f"argument {flag}: " if flag else ""
    assert (code, out) == (2, "")
    assert err == (f"error: {where}integer {_LONG[:20]}... has too many digits "
                   f"(limit {_LIMIT})\n")


# f = x1^(10^(limit-1)), an exponent of exactly `limit` digits: M(f^k, 1) over
# F_3 prints x1^ceil(k * 10^(limit-1) / 3), which fits the limit up to k = 29
_WIDE_F = "x1^1" + "0" * (_LIMIT - 1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_matrix_refuses_exponents_past_the_digit_limit(capsys, fmt):
    argv = ["matrix", "--f", _WIDE_F, "--p", "3", "--e", "1", "--format", fmt]
    for power in (100, 30):
        code, out, err = run(capsys, *argv, "--power", str(power))
        assert (code, out) == (2, "")
        assert err == (f"error: M(f^{power}, 1) has exponents with too many "
                       f"digits to print (limit {_LIMIT})\n")
    for power in (1, 29):
        code, out, err = run(capsys, *argv, "--power", str(power))
        assert (code, err) == (0, "")
        widest = -(-power * 10 ** (_LIMIT - 1) // 3)
        assert f"x1^{widest}" in out


# the signature's fraction is printed by the same rule as the matrix: with D
# of `limit` nines the uv closed form of (D, D) divides by D^3, and
# 1/2^14999 for 15000 ones has 4516 digits
_NINES = "9" * _LIMIT


@pytest.mark.parametrize(
    "argv",
    [
        ["fsignature", "--type", "uv", "--dvec", f"{_NINES},{_NINES}"],
        ["fsignature", "--type", "z2", "--dvec", ",".join(["1"] * 15000)],
        ["fsignature", "--type", "uv", "--f", f"x1^{_NINES}*x2^{_NINES}", "--p", "3"],
    ],
    ids=["uv-dvec", "z2-dvec", "uv-monomial-f"],
)
def test_signature_past_the_digit_limit_refused_in_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: the signature has too many digits to print "
                   f"(limit {_LIMIT})\n")


@pytest.mark.parametrize(
    "f, extra, reason",
    [
        ("5", (), "cannot infer variable count; pass --n"),
        ("0", (), "cannot infer variable count; pass --n"),
        ("x5", ("--n", "3"), "--n 3 is smaller than highest variable index 5"),
    ],
)
def test_variable_count_refusals_keep_their_words(capsys, f, extra, reason):
    code, out, err = run(capsys, "matrix", "--f", f, "--p", "3", "--e", "1", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_variable_count_is_the_parsers(seed):
    # texts glued from the fuzz pool of --f, with their variables renumbered:
    # every text the parser accepts in many variables parses in exactly
    # variable_count(text) of them, and one fewer refuses the highest index
    from frobsig.ring import parse_poly, variable_count

    rng = random.Random(seed)
    good, bad = FUZZ_VALUES["--f"]
    accepted = 0
    for _ in range(300):
        parts = rng.sample(good + bad, rng.randint(1, 3))
        text = "".join(part + rng.choice(["+", "-", "*", "", " "]) for part in parts)
        text = re.sub(r"x(\d+)", lambda m: f"x{rng.randint(0, 12)}", text[:-1])
        count = variable_count(text)
        try:
            want = parse_poly(text, 3, 40)
        except ValueError:
            continue
        accepted += 1
        assert str(parse_poly(text, 3, max(count, 1))) == str(want), text
        if count:
            with pytest.raises(ValueError) as refusal:
                parse_poly(text, 3, count - 1)
            assert str(refusal.value) == (
                f"variable index {count} out of range 1..{count - 1}"
            ), text
    assert accepted >= 50


@pytest.mark.parametrize(
    "argv",
    [
        "matrix --f x1^2+x1*x2+x2^3 --p 3 --e 2 --power 4",
        "verify --f x1^2+x2^3 --p 3 --e 2 --k 4",
        "decompose --dvec 3,2 --p 5 --e 1",
        "freerank --type z2 --f x1^2+x1*x2+x2^3 --p 5 --e 1",
        "fsignature --type uv --f x1^2+x2^3 --p 3 --emax 1",
        "fsignature --type uv --dvec 3,2,2",
    ],
    ids=["matrix", "verify", "decompose", "freerank", "fsignature-f", "fsignature-dvec"],
)
def test_budget_boundary_is_exact(capsys, argv):
    # a budget of the call's own count answers as an unbounded one does, and
    # one unit less refuses it in one line
    argv = argv.split()
    code, out, err = run(capsys, *argv, "--max-size", str(10 ** 12))
    assert (code, err) == (0, "")
    count = ring.work()
    assert run(capsys, *argv, "--max-size", str(count)) == (0, out, "")
    assert run(capsys, *argv, "--max-size", str(count - 1)) == (
        3, "", f"error: computation passed its bound of {count - 1} units of work\n")


# an admitted and a refused call of each subcommand
_METERED = [
    "matrix --f x1^2+x1*x2 --p 3 --e 2",
    "matrix --f x1^2+x1*x2 --p 3 --e 2 --max-size 1500",
    "verify --f x1^2+x2^3 --p 3 --e 2 --k 4",
    "verify --f x1^2+x2^3 --p 3 --e 2 --k 4 --max-size 4000",
    "decompose --dvec 3,2 --p 5 --e 2",
    "decompose --dvec 3,2 --p 5 --e 2 --max-size 500",
    "freerank --type z2 --f x1^2+x1*x2+x2^3 --p 5 --e 2",
    "freerank --type z2 --f x1^2+x1*x2+x2^3 --p 5 --e 2 --max-size 30000",
    "fsignature --type uv --f x1^2+x2^3 --p 5 --emax 3",
    "fsignature --type uv --f x1^2+x2^3 --p 5 --emax 3 --max-size 100",
]

# runs each argv given as a JSON list and prints its exit code and count
_COUNT = """
import contextlib, io, json, sys
from frobsig import cli, ring
for line in sys.stdin:
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = cli.main(json.loads(line))
    print(code, ring.work())
"""


def _counts(argvs, **env):
    result = subprocess.run(
        [sys.executable, "-c", _COUNT],
        input="".join(json.dumps(argv) + "\n" for argv in argvs),
        env=dict(_env_with_src(), **env), capture_output=True, text=True, timeout=30,
    )
    assert result.stderr == ""
    return [tuple(map(int, line.split())) for line in result.stdout.splitlines()]


def test_count_depends_only_on_argv(capsys):
    argvs = [argv.split() for argv in _METERED]
    # each argv alone in a fresh interpreter
    fresh = [_counts([argv])[0] for argv in argvs]
    assert [code for code, _ in fresh] == [0, 3] * 5
    # all of them in one interpreter, in turn and in reverse, under two hash seeds
    for seed in ("0", "1"):
        assert _counts(argvs + argvs[::-1], PYTHONHASHSEED=seed) == fresh + fresh[::-1]
    # in this process, after free ranks made without a budget
    for text in ("x1^2+x2^3+x3^2+x4^3", "x1^2+x2^3"):
        for p in (3, 5):
            free_rank_uv(parse_poly(text, p, 4), FrobBasis(p, 3, 4))
    for argv, want in zip(argvs, fresh):
        assert (main(argv), ring.work()) == want, argv
    capsys.readouterr()
    # a library call too: repeated with no budget open, it counts the same
    added = []
    for _ in range(2):
        before = ring.work()
        free_rank_uv(parse_poly("x1^2+x2^3", 5, 2), FrobBasis(5, 3, 2))
        added.append(ring.work() - before)
    assert added[0] == added[1] > 0, added


def test_budget_does_not_leak(capsys):
    # a refused call leaves no budget open: a larger --max-size answers, and
    # direct library calls that do more work than the refused bound complete
    argv = ["freerank", "--type", "uv", "--f", "x1^2+x2^3", "--p", "3", "--e", "4"]
    assert main(argv + ["--max-size", "100"]) == 3
    assert main(argv + ["--max-size", str(10 ** 6)]) == 0
    assert json.loads(capsys.readouterr().out)["free_rank"] == 295245
    assert main(argv + ["--max-size", "100"]) == 3
    before = ring.work()
    assert free_rank_uv(parse_poly("x1^2+x2^3", 3, 2), FrobBasis(3, 4, 2)) == 295245
    assert ring.work() - before > 100
    before = ring.work()
    report = decomposition_report(MonomialData((2, 1)), 3, 4)
    assert ring.work() - before > 100
    assert report.free_rank > 3 ** 8
    capsys.readouterr()
