"""Smoke self-test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

from spinlift import hodge, lifting, localfactors, modforms  # noqa: E402


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_metric_names_match_benchmark_json():
    assert dict(run.END_TO_END) == declared("end_to_end")
    assert dict(run.PER_LAYER) == declared("per_layer")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name, trace):
    report, result = run.run_benchmark(name, 7, 0.2, trace, workloads.SMOKE)
    assert result["correct"], report
    assert result["attempted"] >= 1
    assert result["failed"] == 0, report
    if name == "verify":
        assert report["known_defects"]["items"] == workloads.SMOKE.census_items
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert json.loads(json.dumps(report))["provenance"]["seed"] == 7


def test_lift_oracle_matches_both_exact_routes():
    records = {r.label: r for r in modforms.fixture_records(60)}
    recs = oracles.parse_fixtures(modforms.fixtures_payload(60))
    h, g = records["Delta.12.1"], records["SK.14.2"]
    for p in (2, 3, 59):
        inp = lifting.lift_input_from_records(h, g, p)
        report = lifting.verify_tensor_identity(inp, exact=True)
        assert list(report.lift_coeffs) == oracles.lift_l8_from_fixtures(recs, p)
    for k, p in ((6, 997), (30, 101), (60, 2)):
        gl2 = localfactors.gl2_factor_exact(k - 2, p, 0)
        lam, lam2 = modforms.sk_eigenvalue(k, p, 0), modforms.sk_eigenvalue_psquared(k, p, 0)
        tensor = localfactors.tensor_local_factor(gl2, localfactors.gsp4_spin_factor_exact(k, p, lam, lam2))
        assert list(tensor.coeffs) == oracles.lift_l8(k, p, 0, 0)


def test_known_defects_show_on_the_full_grid():
    # One item, synthetic, at the top corner of the grid, beyond float range.
    verify = workloads.Verify(run.ROOT, None, dataclasses.replace(workloads.SMOKE, census_items=1))
    verify.grid = [(60, 997)]
    assert verify.known_defects(1, None) == [["exception.OverflowError"]]


def test_weight_family_matches_solver():
    assert oracles.weight_family(8, 30) == list(hodge.weight_solver(8, 30))


def test_fixture_oracle_rejects_a_changed_eigenvalue(tmp_path):
    path = tmp_path / "fixtures.json"
    modforms.write_fixtures(path, 19)
    raw = path.read_bytes()
    assert oracles.check_fixtures(raw, 19) == []
    tampered = raw.replace(b'"lambda_p": "-24"', b'"lambda_p": "-23"')
    assert tampered != raw
    assert oracles.check_fixtures(tampered, 19)


def test_scaling_report_at_tiny_sizes():
    import scaling

    report = scaling.scaling(bounds=(20, 40), weights=(6, 8), repeats=1)
    for key in ("fixture_records", "truncated_euler_product", "tensor_local_factor"):
        assert math.isfinite(report[key]["loglog_exponent"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
