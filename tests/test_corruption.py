"""Corrupted fixtures files, one row each, and the commands that must refuse them.

Each row is a mutant of a stock B = 19 file.  Every command that reads the
file must exit 2 (invalid input) within a second: the mutated record is
refused when the file is loaded, before any power p^(k-1) of its weight is
formed.  The commands run as subprocesses under a timeout and a memory cap,
so a command that computes with the record fails the row instead of hanging
the suite or exhausting memory.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spinlift import modforms

try:
    import resource
except ImportError:  # not on every platform: the timeout alone bounds the run
    resource = None

SRC = Path(__file__).resolve().parents[1] / "src"
DEADLINE_S = 1.0
MEMORY_CAP = 1 << 30

PAIR = ("--h", "Delta.12.1", "--g", "SK.14.2")
COMMANDS = {
    "satake": lambda label: ("satake", "--label", label, "--p", "3"),
    "local-factor": lambda label: ("local-factor", "--label", label, "--p", "3"),
    "lift --verify": lambda label: ("lift", *PAIR, "--p", "3", "--verify"),
    "cuspidality --h/--g": lambda label: ("cuspidality", *PAIR, "--p", "3"),
    "verify miyawaki": lambda label: ("verify", "miyawaki"),
    "lvalue": lambda label: ("lvalue", *PAIR, "--s", "25"),
}

#: row -> (label of the record, the field replaced, its new value)
ROWS = {
    "Delta.12.1 weight 10^40": ("Delta.12.1", "weight", 10**40),
    "SK.14.2 weight 10^40": ("SK.14.2", "weight", 10**40),
    "g26.26.1 weight 10^7": ("g26.26.1", "weight", 10**7),
    "g26.26.1 weight 1": ("g26.26.1", "weight", 1),
    "g26.26.1 degree 3": ("g26.26.1", "degree", 3),
}


@pytest.fixture(scope="module")
def stock(tmp_path_factory):
    path = tmp_path_factory.mktemp("stock") / "fixtures.json"
    modforms.write_fixtures(path, 19)
    return json.loads(path.read_text())


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize("row", ROWS)
def test_corrupted_record_is_invalid_input_on_every_command(stock, tmp_path, row):
    label, field, value = ROWS[row]
    refusal = f"record '{label}' has {field} {value},"
    data = json.loads(json.dumps(stock))
    (record,) = [r for r in data["records"] if r["label"] == label]
    record[field] = value
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(data))
    path_env = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_env}
    # All commands of the row at once, each given DEADLINE_S from the start.
    start = time.monotonic()
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "spinlift.cli", "--fixtures", str(path), *argv(label)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=_cap_memory if resource else None,
        )
        for name, argv in COMMANDS.items()
    }
    outcomes = {}
    try:
        for name, proc in procs.items():
            left = max(0.0, start + DEADLINE_S - time.monotonic())
            try:
                out, err = proc.communicate(timeout=left)
            except subprocess.TimeoutExpired:
                outcomes[name] = f"no exit within {DEADLINE_S} s"
                continue
            if proc.returncode != 2 or out or refusal not in err:
                outcomes[name] = f"exit {proc.returncode}, stderr {err[-300:]!r}"
    finally:
        for proc in procs.values():
            proc.kill()
            proc.communicate()
    assert not outcomes, outcomes
