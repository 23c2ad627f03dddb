import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinlift
from spinlift.cli import main

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
    assert json.loads(out)["hecke_eigenvalue"][0] == pytest.approx(-24)


@pytest.mark.parametrize("bound", ["0", "1", "-5"])
def test_fixtures_gen_rejects_small_prime_bound(tmp_path, capsys, bound):
    path = tmp_path / "f.json"
    code, _, err = run(capsys, "--fixtures", str(path), "fixtures", "gen", "--prime-bound", bound)
    assert code == 2
    assert "prime bound" in err and not path.exists()


@pytest.mark.parametrize("tol", ["0", "-1e-9"])
def test_nonpositive_tol_is_rejected(tmp_path, capsys, tol):
    path = tmp_path / "f.json"
    code, _, err = run(capsys, "--fixtures", str(path), f"--tol={tol}", "fixtures", "gen")
    assert code == 2
    assert "tolerance" in err and not path.exists()


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_nonfinite_tol_is_rejected(capsys, tol):
    code, out, err = run(capsys, f"--tol={tol}", "critical", "--k", "14")
    assert code == 2 and out == ""
    assert "tolerance" in json.loads(err)["error"]


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
    assert payload["hecke_eigenvalue"][0] == pytest.approx(12240)


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


def test_local_factor_standard_requires_numeric(fixtures_file, capsys):
    code, _, err = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "local-factor", "--label", "Delta.12.1", "--p", "2", "--rep", "standard",
    )
    assert code == 2
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "local-factor", "--label", "Delta.12.1", "--p", "2",
        "--rep", "standard", "--numeric",
    )
    assert code == 0
    assert json.loads(out)["factor"]["degree"] == 3


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


def test_cuspidality_command_labels(fixtures_file, capsys):
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_file),
        "cuspidality", "--p", "3", "--h", "Delta.12.1", "--g", "SK.14.2",
    )
    assert code == 0
    assert json.loads(out)["cuspidal"] is True


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


def test_report_cuspidality_takes_its_weight_from_the_labels(fixtures_file, capsys):
    labels = ("--h", "Delta.12.1", "--g", "SK.14.2", "--p", "3")
    code, out, _ = run(
        capsys, "--fixtures", str(fixtures_file), "report", "--subject", "cuspidality", *labels
    )
    assert code == 0
    report = json.loads(out)
    code, out, _ = run(capsys, "--fixtures", str(fixtures_file), "cuspidality", *labels)
    assert code == 0
    assert report["payload"] == json.loads(out)
    assert report["payload"]["k"] == 14


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
    ],
)
def test_golden_outputs(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.fixture(scope="module")
def fixtures_97(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "fixtures.json"
    assert main(["--fixtures", str(path), "fixtures", "gen", "--prime-bound", "97"]) == 0
    return path


@pytest.mark.parametrize("name,s", [("lvalue_s23.json", "23"), ("lvalue_s27_3.json", "27.3")])
def test_golden_lvalue_outputs(fixtures_97, capsys, name, s):
    # Over all 25 primes up to 97: the exact route at s = 23 and the
    # mantissa-split route at s = 27.3, byte for byte.
    code, out, _ = run(
        capsys,
        "--fixtures", str(fixtures_97),
        "lvalue", "--h", "Delta.12.1", "--g", "SK.14.2", "--s", s, "--prime-bound", "97",
    )
    assert code == 0
    assert out == (GOLDEN / name).read_text()


# ---------------------------------------------------------------- import cost

def test_cli_does_not_import_numpy_or_scipy():
    proc = _python(
        "import sys\n"
        "from spinlift import cli\n"
        "assert cli.main(['critical', '--k', '14']) == 0\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_lvalue_does_not_import_numpy(fixtures_file):
    # Every lift factor carries a certified root exponent, so the float
    # root check (the package's only numpy use) never runs.
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
