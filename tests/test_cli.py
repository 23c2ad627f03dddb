import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlift
from spinlift import cli, modforms
from spinlift.cli import main

from conftest import WRONG_FIXTURE_SHAPES, with_duplicated_first_record

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(spinlift.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(code, *args, timeout=60):
    """Run code in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture
def fixtures_file(tmp_path, capsys):
    path = tmp_path / "fixtures.json"
    code, _, _ = run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", "7")
    assert code == 0
    return path


# ---------------------------------------------------------------- fixtures

def test_fixtures_gen_writes_deterministically(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code, out, _ = run(capsys, "--fixtures", str(a), "fixtures", "gen")
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["Delta.12.1", "SK.14.2", "g26.26.1"]
    run(capsys, "--fixtures", str(b), "fixtures", "gen")
    assert a.read_bytes() == b.read_bytes()


def test_fixtures_env_variable(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.json"
    monkeypatch.setenv("SPINLIFT_FIXTURES", str(path))
    code, _, _ = run(capsys, "fixtures", "gen", "--prime-bound", "3")
    assert code == 0 and path.exists()
    code, out, _ = run(capsys, "satake", "--label", "Delta.12.1", "--p", "2")
    assert code == 0
    assert json.loads(out)["hecke_eigenvalue"] == [-24, 0]


@pytest.mark.parametrize("bound", ["0", "1", "-5"])
def test_fixtures_gen_rejects_small_prime_bound(tmp_path, capsys, bound):
    path = tmp_path / "f.json"
    code, _, err = run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", bound)
    assert code == 2
    assert "prime bound" in err and not path.exists()


_LABEL_COMMANDS = {
    "satake": ("satake", "--label", "Delta.12.1", "--p", "2"),
    "lvalue": ("lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "25"),
    "verify miyawaki": ("verify", "miyawaki"),
}


@pytest.mark.parametrize("shape", list(WRONG_FIXTURE_SHAPES)[:11])
@pytest.mark.parametrize("command", sorted(_LABEL_COMMANDS))
def test_fixtures_of_a_wrong_shape_are_invalid_input(fixtures_file, command, shape):
    data = json.loads(fixtures_file.read_text())
    fixtures_file.write_text(json.dumps(WRONG_FIXTURE_SHAPES[shape](data)))
    proc = _python(
        "from spinlift.cli import entrypoint\nentrypoint()",
        "--fixtures", str(fixtures_file), *_LABEL_COMMANDS[command],
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "is unusable" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("local-factor", "--label", "Delta.12.1", "--p", "2"),
        ("lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "25"),
        ("verify", "miyawaki"),
    ],
)
def test_fixtures_with_a_duplicated_label_are_invalid_input(fixtures_file, capsys, argv):
    # A second Delta.12.1 record with tau(2) = -25 used to replace the first.
    data = json.loads(fixtures_file.read_text())
    fixtures_file.write_text(json.dumps(with_duplicated_first_record(data)))
    code, out, err = run(capsys, "--fixtures", str(fixtures_file), *argv)
    assert code == 2
    assert out == ""
    assert "label 'Delta.12.1' appears more than once" in json.loads(err)["error"]


# There is no tolerance flag: no command compares floats, so --tol is an
# unknown option (usage error, exit 2) whatever its value.

def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("tol", ["0", "-1e-9"])
def test_nonpositive_tol_is_rejected(tmp_path, capsys, tol):
    path = tmp_path / "f.json"
    code, _, err = _usage_error(capsys, "--fixtures", str(path), f"--tol={tol}", "fixtures", "gen")
    assert code == 2
    assert "--tol" in err and not path.exists()


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_nonfinite_tol_is_rejected(capsys, tol):
    code, out, err = _usage_error(capsys, f"--tol={tol}", "critical", "--k", "14")
    assert code == 2 and out == ""
    assert "--tol" in err


@pytest.mark.parametrize("tol", ["1e-9", "12.5"])
def test_tol_flag_no_longer_exists(fixtures_file, capsys, tol):
    code, out, err = _usage_error(
        capsys, "--fixtures", str(fixtures_file), "--tol", tol, "verify", "miyawaki"
    )
    assert code == 2 and out == "" and err.startswith("usage: spinlift")
    assert "--tol" not in cli.build_parser().format_help()


@pytest.mark.parametrize("order", ["0", "1", "-3"])
def test_fixtures_gen_rejects_small_order(tmp_path, capsys, order):
    path = tmp_path / "f.json"
    code, _, err = run(capsys, "--fixtures", str(path), "fixtures", "gen", "--order", order)
    assert code == 2
    assert "order" in err and not path.exists()


# ---------------------------------------------------------------- verify miyawaki

def test_verify_miyawaki_passes(fixtures_file, capsys):
    code, out, _ = run(capsys, "--fixtures", str(fixtures_file), "verify", "miyawaki")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert all(c["pass"] for c in payload["checks"])


def test_verify_miyawaki_catches_corruption(fixtures_file, capsys):
    data = json.loads(fixtures_file.read_text())
    for record in data["records"]:
        if record["label"] == "Delta.12.1":
            record["eigenvalues"][0]["lambda_p"] = "-25"
    fixtures_file.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, "--fixtures", str(fixtures_file), "verify", "miyawaki")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert failing and failing[0]["expected"] != failing[0]["actual"]


def test_verify_miyawaki_missing_fixtures(tmp_path, capsys):
    code, _, err = run(
        capsys, "--fixtures", str(tmp_path / "nope.json"), "verify", "miyawaki"
    )
    assert code == 2
    assert "not found" in err


# ---------------------------------------------------------------- satake / factors / lift

def test_satake_command(fixtures_file, capsys):
    code, out, _ = run(
        capsys, "--fixtures", str(fixtures_file), "satake", "--label", "SK.14.2", "--p", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normalized"] is True
    assert payload["ramanujan"] is False
    assert payload["hecke_eigenvalue"] == [12240, 0]
    # The Hecke polynomial over Z: (1 - 2^13 X)(1 - 2^12 X)(1 + 48 X + 2^25 X^2).
    assert payload["spin_factor"]["coeffs"][1] == "-12240"
    assert payload["spin_factor"]["coeffs"][4] == str(2**50)
    assert "mu0" not in payload and "mu" not in payload


def test_satake_unknown_label(fixtures_file, capsys):
    code, _, err = run(
        capsys, "--fixtures", str(fixtures_file), "satake", "--label", "zzz", "--p", "2"
    )
    assert code == 2 and "zzz" in err


def test_local_factor_exact(fixtures_file, capsys):
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "local-factor", "--label", "Delta.12.1", "--p", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["factor"]["coeffs"] == ["1", "24", "2048"]


def test_local_factor_rep_and_numeric_are_usage_errors(fixtures_file, capsys):
    # Local factors are exact spin factors only: no float expansion, no
    # standard factor.
    for option in (["--numeric"], ["--rep", "standard"], ["--rep", "spin"]):
        code, out, err = _usage_error(
            capsys,
            "--fixtures", str(fixtures_file),
            "local-factor", "--label", "Delta.12.1", "--p", "2", *option,
        )
        assert code == 2 and out == ""
        assert err.startswith("usage: spinlift")
        assert f"unrecognized arguments: {' '.join(option)}" in err


def test_lift_verify(fixtures_file, capsys):
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "2", "--verify",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tensor_identity"]["ok"] is True
    assert payload["eigenvalue_product"]["value"] == "-293760"
    assert payload["spin_factor"]["coeffs"][1] == "293760"


@pytest.fixture
def tempered_file(tmp_path, capsys):
    """B = 19 fixtures whose SK.14.2 entry at p = 3 is the tempered factor
    (1 - xX + rX^2)(1 - yX + rX^2), x = 10^6, y = -10^6, r = 3^25: no
    Saito-Kurokawa split, every inverse root on |X| = r^(-1/2)."""
    path = tmp_path / "tempered.json"
    assert run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", "19")[0] == 0
    k, p, x, y = 14, 3, 10**6, -(10**6)
    r = p ** (2 * k - 3)
    lam = x + y
    lam2 = lam * lam - p ** (2 * k - 4) - (x * y + 2 * r)
    assert modforms.sk_component_eigenvalue(k, p, lam, lam2) is None
    data = json.loads(path.read_text())
    for record in data["records"]:
        for item in record["eigenvalues"]:
            if record["label"] == "SK.14.2" and item["p"] == p:
                item["lambda_p"], item["lambda_p2"] = str(lam), str(lam2)
    path.write_text(json.dumps(data))
    return path


def test_satake_and_lvalue_answer_on_a_tempered_degree_2_entry(tempered_file, capsys):
    fx = ("--fixtures", str(tempered_file))
    code, out, err = run(capsys, *fx, "satake", "--label", "SK.14.2", "--p", "3")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ramanujan"] is True and payload["normalized"] is True
    assert payload["hecke_eigenvalue"] == [0, 0]
    code, _, err = run(capsys, *fx, "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "25")
    assert code == 0, err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4 stage A")
@pytest.mark.parametrize("argv", [("lift", "--verify"), ("cuspidality",)])
def test_lift_pair_commands_answer_on_a_tempered_degree_2_entry(tempered_file, capsys, argv):
    # LiftInput still builds float Satake data, which exist for lift-type
    # degree-2 entries only, so both commands exit 2 here.
    code, _, err = run(
        capsys, "--fixtures", str(tempered_file),
        argv[0], "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3", *argv[1:],
    )
    assert code == 0, err


def test_lift_numeric_is_a_usage_error(fixtures_file, capsys):
    # The tensor identity is checked in exact integers only, so lift has no
    # --numeric, and neither has local-factor.
    code, out, err = _usage_error(
        capsys,
        "--fixtures", str(fixtures_file),
        "lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3", "--verify", "--numeric",
    )
    assert code == 2 and out == ""
    assert err.startswith("usage: spinlift") and "unrecognized arguments: --numeric" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- reports

def test_cuspidality_command_synthetic(capsys):
    code, out, _ = run(capsys, "cuspidality", "--k", "14", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cuspidal"] is True
    assert len(payload["cases"]) == 3


def test_cuspidality_overflow_is_domain_error(capsys):
    # 4 p^(2k-3) at (k, p) = (100, 997) does not fit a double.
    code, out, err = run(capsys, "cuspidality", "--k", "100", "--p", "997")
    assert code == 3 and out == ""
    assert "Traceback" not in err and json.loads(err)["error"]


def test_cuspidality_overflow_names_the_input(capsys):
    code, out, err = run(capsys, "cuspidality", "--k", "60", "--p", "997")
    assert code == 3 and out == ""
    message = json.loads(err)["error"]
    assert "k=60" in message and "p=997" in message and "2^1024" in message


@pytest.mark.parametrize(
    "argv",
    [
        ("cuspidality", "--k", "14", "--p", "4"),
        ("cuspidality", "--k", "14", "--p", "0"),
        ("cuspidality", "--k", "14", "--p", "1"),
        ("cuspidality", "--k", "14", "--p", "-7"),
        ("report", "--subject", "cuspidality", "--k", "14", "--p", "6"),
    ],
)
def test_cuspidality_rejects_non_prime_p(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "prime" in json.loads(err)["error"]


#: The Mersenne prime 2^61 - 1: trial division up to its square root took
#: minutes, Miller-Rabin takes microseconds.
MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize(
    "command, wrapped",
    [(("cuspidality",), False), (("report", "--subject", "cuspidality"), True)],
    ids=["cuspidality", "report-cuspidality"],
)
def test_cuspidality_at_a_large_prime_answers_at_once(capsys, command, wrapped):
    def timed(*argv):
        start = time.perf_counter()
        result = run(capsys, *command, *argv)
        assert time.perf_counter() - start < 1.0, argv
        return result

    code, out, _ = timed("--k", "4", "--p", str(MERSENNE_61))
    assert code == 0
    payload = json.loads(out)["payload"] if wrapped else json.loads(out)
    assert payload["p"] == MERSENNE_61 and payload["cuspidal"] is False
    # At k = 14 the float Satake data overflow a double: a domain error.
    code, out, err = timed("--k", "14", "--p", str(MERSENNE_61))
    assert code == 3 and out == ""
    assert "2^1024" in json.loads(err)["error"]
    # psi_13, past the deterministic range of the primality test: invalid input.
    psi13 = 3317044064679887385961981
    code, out, err = timed("--k", "4", "--p", str(psi13))
    assert code == 2 and out == ""
    assert str(psi13) in json.loads(err)["error"]


def test_cuspidality_command_labels(fixtures_file, capsys):
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "cuspidality", "--p", "3", "--h", "Delta.12.1", "--g", "SK.14.2",
    )
    assert code == 0
    assert json.loads(out)["cuspidal"] is True


#: Lift-consistent data past Deligne's bound at one prime: SK.14.2 at p = 3
#: rebuilt from the weight-26 eigenvalue b = 10^9 (b^2 > 4 * 3^25), and
#: tau(2) = 1000 (1000^2 > 4 * 2^11).
_PAST_DELIGNE = {
    "SK.14.2": (3, modforms.sk_eigenvalue(14, 3, 10**9), modforms.sk_eigenvalue_psquared(14, 3, 10**9)),
    "Delta.12.1": (2, 1000, 1000**2 - 2**11),
}


@pytest.mark.parametrize("label", sorted(_PAST_DELIGNE))
def test_cuspidality_refuses_data_without_certified_exponents(tmp_path, capsys, label):
    # Such data have no certified modulus exponents, so the decision refuses
    # them: a domain error (exit 3) naming the prime.
    p, lam, lam2 = _PAST_DELIGNE[label]
    path = tmp_path / "fixtures.json"
    assert run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", "19")[0] == 0
    data = json.loads(path.read_text())
    for record in data["records"]:
        if record["label"] == label:
            for item in record["eigenvalues"]:
                if item["p"] == p:
                    item["lambda_p"], item["lambda_p2"] = str(lam), str(lam2)
    path.write_text(json.dumps(data))
    code, out, err = run(
        capsys,
        "--fixtures", str(path),
        "cuspidality", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", str(p),
    )
    assert code == 3 and out == ""
    assert f"p={p} has no certified exponents" in json.loads(err)["error"]


@pytest.mark.parametrize("k", ["0", "12"])
def test_cuspidality_labels_reject_a_disagreeing_k(fixtures_file, capsys, k):
    code, out, err = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "cuspidality", "--p", "3", "--h", "Delta.12.1", "--g", "SK.14.2", "--k", k,
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "--k disagrees with the weight of --g"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cuspidality", "--k", "0", "--p", "3"), "k must be even and at least 4"),
        (("report", "--subject", "cuspidality", "--k", "0"), "k must be even and at least 4"),
        (("report", "--subject", "critical", "--k", "0"), "weight must be even and at least 12"),
        (("report", "--subject", "gamma", "--k", "0"), "weight must be even and at least 12"),
    ],
)
def test_k_zero_is_a_bad_weight_not_a_missing_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == message


@pytest.mark.parametrize(
    "command", [("critical",), ("report", "--subject", "critical")], ids=["critical", "report"]
)
@pytest.mark.parametrize("k", [cli.MAX_SIZE + 2, 10**12])
def test_critical_above_the_weight_limit_is_invalid_input(capsys, command, k):
    # Refused before any list is built, so even K = 10^12 returns at once.
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--k", str(k))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"--k {k} is above the limit {cli.MAX_SIZE}"


def test_critical_at_the_weight_limit_lists_every_critical_integer(capsys):
    k = cli.MAX_SIZE
    code, out, _ = run(capsys, "critical", "--k", str(k))
    assert code == 0
    payload = json.loads(out)
    assert payload["critical_values"] == list(range(k, 2 * k - 4))
    assert payload["center"] == 3 * k - 5


@pytest.mark.parametrize(
    "command, option",
    [
        (("fixtures", "gen"), "--prime-bound"),
        (("fixtures", "gen"), "--order"),
        (("hodge", "solve"), "--max"),
        (("report", "--subject", "hodge-solve"), "--max"),
        (("cuspidality", "--p", "2"), "--k"),
        (("report", "--subject", "cuspidality"), "--k"),
    ],
    ids=["fixtures-bound", "fixtures-order", "hodge-solve", "report-hodge-solve",
         "cuspidality", "report-cuspidality"],
)
@pytest.mark.parametrize("size", [cli.MAX_SIZE + 2, 10**12])
def test_size_above_the_limit_is_invalid_input(tmp_path, capsys, command, option, size):
    # Refused before any work: no sieve, series, solver range or power of p.
    path = tmp_path / "fixtures.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "--fixtures", str(path), *command, option, str(size))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{option} {size} is above the limit {cli.MAX_SIZE}"
    assert not path.exists()


@pytest.mark.parametrize("subject", ["critical", "gamma", "cuspidality"])
def test_report_without_k_names_the_missing_option(capsys, subject):
    code, out, err = run(capsys, "report", "--subject", subject)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"subject {subject} needs --k"


def test_hodge_show(capsys):
    code, out, _ = run(capsys, "hodge", "show", "--type", "gsp6", "--weight", "14")
    assert code == 0
    payload = json.loads(out)
    assert [13, 23] in payload["pairs"]
    assert payload["motivic_weight"] == 36


def test_hodge_solve_large_range_finishes():
    # Run in a child so that a solver quadratic in the range fails by the
    # timeout (about 20 s at --max 2000) instead of holding up the suite.
    proc = _python(
        "import sys; from spinlift.cli import main; sys.exit(main(sys.argv[1:]))",
        "hodge", "solve", "--min", "8", "--max", "2000",
        timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    solutions = json.loads(proc.stdout)["solutions"]
    assert len(solutions) == 996
    assert solutions == [[K - 2, K, K] for K in range(10, 2001, 2)]


@pytest.mark.parametrize(
    "argv",
    [
        ("hodge", "solve", "--min", "16", "--max", "1"),
        ("report", "--subject", "hodge-solve", "--min", "16", "--max", "1"),
        ("hodge", "solve", "--min", "1", "--max", "0"),
    ],
)
def test_hodge_solve_rejects_an_inverted_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert f"--max {argv[-1]}" in message and f"--min {argv[-3]}" in message


def test_table_format_prints_an_empty_solution_list(capsys):
    code, out, _ = run(capsys, "--format", "table", "hodge", "solve", "--min", "1", "--max", "3")
    assert code == 0
    assert out.splitlines() == ["family = k = K - 2, l = K", "max = 3", "min = 1", "solutions = []"]


def test_lvalue_command(fixtures_file, capsys):
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "23",
        "--prime-bound", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["motivic_weight"] == 36
    assert payload["tail_bound"] > 0
    assert payload["root_exponent"] == 18.5
    assert payload["violations"] == [[p, 18.5] for p in (2, 3, 5, 7)]


def test_lvalue_below_abscissa_is_domain_error(fixtures_file, capsys):
    code, _, err = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "10",
        "--prime-bound", "7",
    )
    assert code == 3 and "abscissa" in err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_lvalue_nonfinite_s_is_domain_error(fixtures_file, capsys, s):
    code, out, err = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", f"--s={s}",
        "--prime-bound", "7",
    )
    assert code == 3 and out == ""
    assert "finite" in json.loads(err)["error"]


def test_lvalue_huge_s_finishes(fixtures_file):
    # Run in a child so that a regression (an exact p^(10^308)) is killed by
    # the timeout instead of eating the memory of the test process.
    proc = _python(
        "import sys; from spinlift.cli import main; sys.exit(main(sys.argv[1:]))",
        "--fixtures", str(fixtures_file),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "1e308",
        "--prime-bound", "7",
        timeout=5,
    )
    assert proc.returncode in (0, 3), proc.stderr


def test_lvalue_missing_prime_guides_user(fixtures_file, capsys):
    code, _, err = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "23",
        "--prime-bound", "50",
    )
    assert code == 2 and "regenerate" in err


def test_lvalue_huge_prime_bound_names_the_first_missing_prime(tmp_path, capsys):
    # Checked against the records before the Euler product sieves: on a B = 19
    # file the sieve stops at 23, so a bound of 10^12 costs nothing.
    path = tmp_path / "fixtures.json"
    assert run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", "19")[0] == 0
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "--fixtures", str(path),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "25",
        "--prime-bound", str(10**12),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "fixtures lack prime 23; regenerate with a larger --prime-bound"
    }


def test_lvalue_missing_psquared_data_names_it(fixtures_file, capsys):
    # The records have p = 3, but SK.14.2 lacks its T_{p^2} eigenvalue there:
    # lvalue says so, as lift does, instead of asking for a larger bound.
    data = json.loads(fixtures_file.read_text())
    for record in data["records"]:
        if record["label"] == "SK.14.2":
            for item in record["eigenvalues"]:
                if item["p"] == 3:
                    del item["lambda_p2"]
    fixtures_file.write_text(json.dumps(data))
    fx = ("--fixtures", str(fixtures_file))
    code, _, err = run(capsys, *fx, "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "25")
    message = "record 'SK.14.2' has no p^2 eigenvalue at 3"
    assert code == 2 and json.loads(err) == {"error": message}
    code, _, err = run(capsys, *fx, "lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3")
    assert code == 2 and json.loads(err) == {"error": message}


# numpy and scipy are not importable in a child that runs this first.
_BLOCK_NUMPY = "import sys\nsys.modules.update(numpy=None, scipy=None)\n"


def test_lvalue_refuses_an_uncertified_factor(tmp_path, capsys):
    # SK.14.2's lambda_13 moved by 691: the factor at 13 is neither of
    # Saito-Kurokawa shape nor tempered, so no root exponent is certified
    # for it and no abscissa can be given.  It is a domain error (exit 3)
    # naming p = 13, decided without numpy.
    path = tmp_path / "fixtures.json"
    assert run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", "19")[0] == 0
    data = json.loads(path.read_text())
    for record in data["records"]:
        if record["label"] == "SK.14.2":
            for item in record["eigenvalues"]:
                if item["p"] == 13:
                    item["lambda_p"] = str(int(item["lambda_p"]) + 691)
    path.write_text(json.dumps(data))
    proc = _python(
        _BLOCK_NUMPY + "from spinlift.cli import main\nsys.exit(main(sys.argv[1:]))",
        "--fixtures", str(path), "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "25",
    )
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert "p=13 has no certified root exponent" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("lvalue", "--s", "40", "--prime-bound", "7"),
        ("lift", "--p", "3"),
        ("cuspidality", "--p", "3"),
    ],
)
def test_lift_pair_commands_refuse_a_degree_2_record_as_h(fixtures_file, capsys, argv):
    # A weight-12 copy of the degree-2 record passes the weight check with
    # SK.14.2, so only the degree check can refuse it.
    data = json.loads(fixtures_file.read_text())
    sk = next(r for r in data["records"] if r["label"] == "SK.14.2")
    data["records"].append({**sk, "label": "SK.12.x", "weight": 12})
    fixtures_file.write_text(json.dumps(data))
    pair = ("--h", "SK.12.x", "--g", "SK.14.2")
    code, out, err = run(capsys, "--fixtures", str(fixtures_file), argv[0], *pair, *argv[1:])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "record 'SK.12.x' is not a degree-1 form"


def test_report_unknown_subject(capsys):
    code, _, err = run(capsys, "report", "--subject", "nonsense")
    assert code == 2 and "nonsense" in err


@pytest.mark.parametrize(
    "argv,probe",
    [
        (("report", "--subject", "hodge-solve", "--min", "8", "--max", "12"), "solutions"),
        (("report", "--subject", "gamma", "--k", "14"), "shifts_match"),
        (("report", "--subject", "cuspidality", "--k", "14", "--p", "3"), "cuspidal"),
    ],
)
def test_report_subjects(capsys, argv, probe):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert probe in payload["payload"]


def test_report_local_factor(fixtures_file, capsys):
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "report", "--subject", "local-factor", "--label", "SK.14.2", "--p", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["payload"]["factor"]["coeffs"][1] == "-12240"


@pytest.mark.parametrize(
    "subject, command, options, key, value",
    [
        pytest.param(
            "hodge-solve", ("hodge", "solve"), ("--min", "8", "--max", "20"), "min", 8, id="hodge-solve",
        ),
        pytest.param("critical", ("critical",), ("--k", "14"), "weight", 14, id="critical"),
        pytest.param("gamma", ("gamma", "--compare-rs"), ("--k", "14"), "shifts_match", True, id="gamma"),
        # The weight comes from the labels.
        pytest.param(
            "cuspidality", ("cuspidality",), ("--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3"), "k", 14,
            id="cuspidality",
        ),
        pytest.param(
            "local-factor", ("local-factor",), ("--label", "SK.14.2", "--p", "3"), "label", "SK.14.2",
            id="local-factor",
        ),
    ],
)
def test_report_subject_prints_its_command_payload(
    fixtures_file, capsys, subject, command, options, key, value
):
    fx = ("--fixtures", str(fixtures_file))
    code, out, _ = run(capsys, *fx, "report", "--subject", subject, *options)
    assert code == 0
    report = json.loads(out)
    code, out, _ = run(capsys, *fx, *command, *options)
    assert code == 0
    assert report == {"schema_version": 1, "subject": subject, "payload": json.loads(out)}
    assert report["payload"][key] == value


def test_table_format(capsys):
    code, out, _ = run(capsys, "--format", "table", "critical", "--k", "14")
    assert code == 0
    assert "critical_values[0] = 14" in out
    assert "weight = 14" in out


# ---------------------------------------------------------------- golden files

@pytest.mark.parametrize(
    "name,argv",
    [
        ("critical_k14.json", ("critical", "--k", "14")),
        ("hodge_solve_8_16.json", ("hodge", "solve", "--min", "8", "--max", "16")),
        ("gamma_k14.json", ("gamma", "--k", "14", "--compare-rs")),
        ("report_critical_k14.json", ("report", "--subject", "critical", "--k", "14")),
        ("cuspidality_k14_p2.json", ("cuspidality", "--k", "14", "--p", "2")),
    ],
)
def test_golden_outputs(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_golden_verify_miyawaki(tmp_path, capsys):
    # Default fixtures; the cuspidality cases are the decision's full output.
    path = str(tmp_path / "fixtures.json")
    assert main(["--fixtures", path, "fixtures", "gen"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "--fixtures", path, "verify", "miyawaki")
    assert code == 0
    assert out == (GOLDEN / "verify_miyawaki.json").read_text()


@pytest.fixture(scope="module")
def fixtures_97(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "fixtures.json"
    assert main(["--fixtures", str(path), "fixtures", "gen", "--prime-bound", "97"]) == 0
    return path


@pytest.fixture(scope="module")
def fixtures_1000(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "fixtures.json"
    assert main(["--fixtures", str(path), "fixtures", "gen", "--prime-bound", "1000"]) == 0
    return path


@pytest.mark.parametrize(
    "name,s,bound",
    [
        ("lvalue_s23.json", "23", "97"),
        ("lvalue_s27_3.json", "27.3", "97"),
        ("lvalue_b1000_s25.json", "25", "1000"),
        ("lvalue_b1000_s27_3.json", "27.3", "1000"),
    ],
    ids=["lvalue_s23.json-23", "lvalue_s27_3.json-27.3", "lvalue_b1000_s25.json-25",
         "lvalue_b1000_s27_3.json-27.3"],
)
def test_golden_lvalue_outputs(request, capsys, name, s, bound):
    # Over all 25 primes up to 97 and all 168 up to 1000: the exact route at
    # an integer s and the mantissa-split route at s = 27.3, byte for byte.
    fixtures = request.getfixturevalue(f"fixtures_{bound}")
    capsys.readouterr()  # what writing the fixtures printed
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", s, "--prime-bound", bound,
    )
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_golden_lift_verify(fixtures_97, capsys):
    # The exact identity at p = 97, both routes' coefficients in full.
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_97),
        "lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "97", "--verify",
    )
    assert code == 0
    assert out == (GOLDEN / "lift_verify_p97.json").read_text()


def _no_float(text: str):
    raise AssertionError(f"JSON float {text} in an exact payload")


def _exact_payload(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_float=_no_float, parse_constant=_no_float)


def test_satake_and_lift_payloads_are_exact(fixtures_97, capsys):
    fx = ("--fixtures", str(fixtures_97))
    records = modforms.load_fixtures(fixtures_97)
    for label, record in records.items():
        for p in record.primes():
            payload = _exact_payload(capsys, *fx, "satake", "--label", label, "--p", str(p))
            assert payload["hecke_eigenvalue"] == [record.lambda_p(p), 0], (label, p)
            assert payload["normalized"] is True
            assert payload["spin_factor"]["coeffs"][1] == str(-record.lambda_p(p))
    # The float route printed [-6082056370308940.0, -0.5] for this real integer.
    payload = _exact_payload(capsys, *fx, "satake", "--label", "g26.26.1", "--p", "19")
    assert payload["hecke_eigenvalue"] == [-6082056370308940, 0]
    for p in (2, 97):
        payload = _exact_payload(
            capsys, *fx, "lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", str(p)
        )
        c1 = int(payload["spin_factor"]["coeffs"][1])
        product = records["Delta.12.1"].lambda_p(p) * records["SK.14.2"].lambda_p(p)
        assert payload["lift"]["hecke_eigenvalue"] == [-c1, 0] == [product, 0]
        assert payload["lift"]["normalized"] is True
        # A Saito-Kurokawa lift is not tempered: its root exponent is (3k-5)/2.
        assert payload["lift"]["ramanujan"] is False
    payload = _exact_payload(
        capsys, *fx, "lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3", "--verify"
    )
    assert payload["tensor_identity"]["ok"] is True


# ---------------------------------------------------------------- contract over drawn arguments

_LABELS = st.sampled_from(["Delta.12.1", "SK.14.2", "g26.26.1", "zzz", ""])
# Primes inside and outside the fixtures' bound of 97, composites, 0, 1, negatives.
_PRIMES = st.sampled_from([-7, 0, 1, 2, 3, 4, 9, 13, 15, 29, 97, 101])
_WEIGHTS = st.integers(-4, 64)
_S = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -3.0, 23.0, 27.3]),
    st.floats(-50, 60),
    st.floats(19, 60),  # mostly right of the lift's abscissa
)


def _req(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


def _opt(name, values):
    return st.one_of(st.just([]), _req(name, values))


def _flag(name):
    return st.sampled_from([[], [f"--{name}"]])


# The pair that lifts, or any two labels.
_PAIR = st.one_of(
    st.just(["--h=Delta.12.1", "--g=SK.14.2"]),
    st.tuples(_req("h", _LABELS), _req("g", _LABELS)).map(lambda hg: hg[0] + hg[1]),
)


def _argv(*words, options=()):
    return st.tuples(*options).map(lambda groups: [*words, *(a for g in groups for a in g)])


_SUBJECTS = ["hodge-solve", "critical", "gamma", "cuspidality", "local-factor"]
# Every command of the CLI, with sizes bounded so that each call takes milliseconds.
_COMMAND_OPTIONS = {
    ("fixtures", "gen"): (_opt("prime-bound", st.integers(-3, 60)), _opt("order", st.integers(-3, 80))),
    ("satake",): (_req("label", _LABELS), _req("p", _PRIMES)),
    ("local-factor",): (_req("label", _LABELS), _req("p", _PRIMES)),
    ("lift",): (_PAIR, _req("p", _PRIMES), _flag("verify")),
    ("cuspidality",): (
        _opt("k", _WEIGHTS), _req("p", _PRIMES), st.one_of(st.just([]), _PAIR, _opt("h", _LABELS)),
    ),
    ("hodge", "show"): (_req("type", st.sampled_from(["gl2", "gsp4", "gsp6"])), _req("weight", _WEIGHTS)),
    ("hodge", "solve"): (_opt("min", st.integers(-4, 60)), _opt("max", st.integers(-4, 200))),
    ("critical",): (_req("k", _WEIGHTS),),
    ("gamma",): (_req("k", _WEIGHTS), _flag("compare-rs")),
    ("lvalue",): (_PAIR, _req("s", _S), _opt("prime-bound", st.integers(-3, 120))),
    ("verify", "miyawaki"): (),
    ("report",): (
        _req("subject", st.sampled_from([*_SUBJECTS, "nonsense"])),
        _opt("k", _WEIGHTS), _opt("p", _PRIMES), st.one_of(st.just([]), _PAIR, _opt("g", _LABELS)),
        _opt("label", _LABELS), _opt("min", st.integers(-4, 60)), _opt("max", st.integers(-4, 200)),
    ),
}
_COMMANDS = st.one_of(*(_argv(*words, options=options) for words, options in _COMMAND_OPTIONS.items()))
_GLOBALS = _opt("format", st.sampled_from(["json", "table"]))


@settings(max_examples=200, deadline=None)
@given(command=_COMMANDS, options=_GLOBALS)
def test_cli_contract_over_drawn_arguments(fixtures_97, command, options):
    path = fixtures_97.with_name("gen.json") if command[0] == "fixtures" else fixtures_97
    argv = [f"--fixtures={path}", *options, *command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 0 and "--format=table" not in argv:
        json.loads(out.getvalue())
    if code == 1:
        # Only a verification pipeline reports a failed check.
        assert command[0] == "verify" or "--verify" in command, argv


def _command_paths(parser, words=()):
    """The word sequence of every command the parser can run."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, (*words, name))
            return
    yield words


def test_contract_draws_every_command_and_subject():
    assert set(_COMMAND_OPTIONS) == set(_command_paths(cli.build_parser()))
    assert set(_SUBJECTS) == set(cli.REPORTS)


# ---------------------------------------------------------------- import cost

# One successful run of every command in the contract table.
_EVERY_COMMAND = {
    ("fixtures", "gen"): ["fixtures", "gen"],
    ("satake",): ["satake", "--label", "SK.14.2", "--p", "3"],
    ("local-factor",): ["local-factor", "--label", "Delta.12.1", "--p", "2"],
    ("lift",): ["lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3", "--verify"],
    ("cuspidality",): ["cuspidality", "--k", "14", "--p", "2"],
    ("hodge", "show"): ["hodge", "show", "--type", "gsp6", "--weight", "14"],
    ("hodge", "solve"): ["hodge", "solve"],
    ("critical",): ["critical", "--k", "14"],
    ("gamma",): ["gamma", "--k", "14", "--compare-rs"],
    ("lvalue",): ["lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "27.3"],
    ("verify", "miyawaki"): ["verify", "miyawaki"],
    ("report",): ["report", "--subject", "local-factor", "--label", "SK.14.2", "--p", "5"],
}


def test_cli_does_not_import_numpy_or_scipy(tmp_path):
    assert set(_EVERY_COMMAND) == set(_COMMAND_OPTIONS)
    proc = _python(
        _BLOCK_NUMPY + "import json\n"
        "from spinlift import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(['--fixtures', sys.argv[2], *argv]) == 0, argv\n"
        "print(sorted(m for m in ('numpy', 'scipy') if sys.modules[m] is not None))\n",
        json.dumps(list(_EVERY_COMMAND.values())), str(tmp_path / "fixtures.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_lvalue_does_not_import_numpy(fixtures_file):
    # Every lift factor carries a certified root exponent, the only kind of
    # exponent the Euler product takes, and the package never uses numpy.
    proc = _python(
        "import sys\n"
        "from spinlift import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n",
        "--fixtures", str(fixtures_file),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "23",
        "--prime-bound", "7",
    )
    assert proc.returncode == 0, proc.stderr
    payload, modules = proc.stdout.rstrip("\n").rsplit("\n", 1)
    assert json.loads(payload)["root_exponent"] == 18.5
    assert modules == "[]"


def _loaded_submodules(proc) -> set[str]:
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


_PRINT_SUBMODULES = "print(sorted(m for m in sys.modules if m.startswith('spinlift.')))\n"


def test_import_spinlift_loads_no_submodule():
    assert _loaded_submodules(_python("import sys, spinlift\n" + _PRINT_SUBMODULES)) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("critical", "--k", "14"),
        ("gamma", "--k", "14", "--compare-rs"),
        ("report", "--subject", "critical", "--k", "14"),
        ("hodge", "solve"),
    ],
)
def test_light_commands_load_no_lift_machinery(argv):
    proc = _python(
        "import sys\n"
        "from spinlift import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n" + _PRINT_SUBMODULES,
        *argv,
    )
    heavy = {f"spinlift.{m}" for m in ("lifting", "cuspidality", "modforms", "satake")}
    assert not _loaded_submodules(proc) & heavy


@pytest.mark.parametrize(
    "argv",
    [
        ("fixtures", "gen", "--prime-bound", "7"),
        ("satake", "--label", "SK.14.2", "--p", "3"),
        ("local-factor", "--label", "SK.14.2", "--p", "3"),
        ("report", "--subject", "local-factor", "--label", "SK.14.2", "--p", "3"),
        ("lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "23", "--prime-bound", "7"),
    ],
)
def test_exact_commands_load_no_float_satake_data(tmp_path, argv):
    # Eigenvalue records live in modforms, and satake reads its facts off the
    # exact spin factor; only the float builders of LiftInput need satake.
    fixtures = tmp_path / "fixtures.json"
    if argv[0] != "fixtures":
        assert main(["--fixtures", str(fixtures), "fixtures", "gen", "--prime-bound", "7"]) == 0
    proc = _python(
        "import sys\n"
        "from spinlift import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n" + _PRINT_SUBMODULES,
        "--fixtures", str(fixtures), *argv,
    )
    assert "spinlift.satake" not in _loaded_submodules(proc)


@pytest.mark.parametrize(
    "argv",
    [
        ("critical", "--k", "14"),
        ("gamma", "--k", "14", "--compare-rs"),
        ("report", "--subject", "critical", "--k", "14"),
    ],
)
def test_gamma_profile_commands_load_no_local_factors(argv):
    # truncated_euler_product imports localfactors and primes when it runs;
    # the profile builders import only hodge.
    proc = _python(
        "import sys\n"
        "from spinlift import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n" + _PRINT_SUBMODULES,
        *argv,
    )
    assert not _loaded_submodules(proc) & {"spinlift.localfactors", "spinlift.primes"}


@pytest.mark.parametrize(
    "argv",
    [
        ("lift", "--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3", "--verify"),
        ("cuspidality", "--k", "20", "--p", "5"),
        ("lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", "23", "--prime-bound", "7"),
        ("verify", "miyawaki"),
    ],
)
def test_lift_commands_load_no_hodge(fixtures_file, argv):
    # An accepted weight pair needs no Hodge witness.
    proc = _python(
        "import sys\n"
        "from spinlift import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n" + _PRINT_SUBMODULES,
        "--fixtures", str(fixtures_file), *argv,
    )
    assert "spinlift.hodge" not in _loaded_submodules(proc)


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # Every command, and the exit-2 and exit-3 paths, in one fresh interpreter:
    # the value types are slotted classes, so nothing pulls these in.
    fx = str(tmp_path / "fixtures.json")
    lift = ["--h", "Delta.12.1", "--g", "SK.14.2"]
    runs = [
        (0, ["fixtures", "gen", "--prime-bound", "7"]),
        (0, ["satake", "--label", "SK.14.2", "--p", "3"]),
        (0, ["local-factor", "--label", "Delta.12.1", "--p", "3"]),
        (0, ["--format", "table", "satake", "--label", "g26.26.1", "--p", "3"]),
        (0, ["lift", *lift, "--p", "3", "--verify"]),
        (0, ["lift", *lift, "--p", "5"]),
        (0, ["cuspidality", "--k", "20", "--p", "5"]),
        (0, ["cuspidality", *lift, "--p", "3"]),
        (0, ["hodge", "show", "--type", "gsp6", "--weight", "14"]),
        (0, ["hodge", "solve"]),
        (2, ["hodge", "solve", "--min", "16", "--max", "1"]),
        (0, ["critical", "--k", "14"]),
        (0, ["gamma", "--k", "14", "--compare-rs"]),
        (0, ["lvalue", *lift, "--s", "23", "--prime-bound", "7"]),
        (3, ["lvalue", *lift, "--s", "5"]),
        (0, ["verify", "miyawaki"]),
        *((0, ["report", "--subject", subject, "--k", "14", "--label", "SK.14.2"])
          for subject in ("hodge-solve", "critical", "gamma", "cuspidality", "local-factor")),
    ]
    proc = _python(
        "import contextlib, io, json, sys\n"
        "from spinlift import cli\n"
        "for code, argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(['--fixtures', sys.argv[2], *argv]) == code, argv\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n",
        json.dumps(runs), fx,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_gamma_profile_commands_load_no_fractions():
    # The profile keeps its prefactor as an int pair; only reading
    # prefactor_rational builds a Fraction.
    runs = [
        ["critical", "--k", "14"],
        ["gamma", "--k", "14", "--compare-rs"],
        ["report", "--subject", "critical", "--k", "14"],
    ]
    proc = _python(
        "import contextlib, io, json, sys\n"
        "from spinlift import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n",
        json.dumps(runs),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_fixtures_gen_loads_no_fractions(tmp_path):
    # The series engine holds integers only; the packed products still
    # run in decimal.
    proc = _python(
        "import contextlib, io, sys\n"
        "from spinlift import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--fixtures', sys.argv[1], 'fixtures', 'gen']) == 0\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n",
        str(tmp_path / "f.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['decimal']"


def test_every_export_resolves_lazily_to_its_module_object():
    # In a fresh interpreter, so that each name goes through the lazy lookup.
    proc = _python(
        "import importlib, sys, spinlift\n"
        "for name, module in spinlift._MODULE_OF.items():\n"
        "    scope = {}\n"
        "    exec(f'from spinlift import {name}', scope)\n"
        "    assert scope[name] is getattr(importlib.import_module(f'spinlift.{module}'), name), name\n"
        "    assert name in dir(spinlift), name\n"
        "from spinlift import modforms\n"
        "assert modforms is sys.modules['spinlift.modforms']\n"
        "try:\n"
        "    from spinlift import no_such_name\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name imported')\n"
        "scope = {}\n"
        "exec('from spinlift import *', scope)\n"
        "assert set(spinlift.__all__) <= set(scope)\n"
        "print(len(spinlift.__all__))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(spinlift._MODULE_OF) > 0
