import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobsig.cli import main


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


def test_validation_exit_code(capsys):
    code, out, err = run(capsys, "matrix", "--f", "x1 +", "--p", "3", "--e", "1")
    assert code == 2
    assert out == "" and "error" in err
    code, _, _ = run(capsys, "matrix", "--f", "x1", "--p", "4", "--e", "1")
    assert code == 2
    code, _, _ = run(capsys, "freerank", "--type", "z2", "--f", "x1", "--p", "2", "--e", "1")
    assert code == 2


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
        assert result.stderr.startswith("note: truncating sweep to e <= 4")
        assert [r["e"] for r in json.loads(result.stdout)["empirical"]] == [1, 2, 3, 4]


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
    code, _, err = run(capsys, "matrix", "--f", "x1", "--p", "3", "--e", "9")
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
