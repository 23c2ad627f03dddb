"""Corrupted fixtures files, one row each, and the commands that must refuse them.

Each row is a mutant of a stock B = 19 file.  Every command that reads the
file must exit 2 (invalid input) within a second: the mutated record is
refused when the file is loaded, before any power p^(k-1) of its weight is
formed and before any command answers at a p that is not a prime.  The commands run as subprocesses under a timeout and a memory cap,
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
    "satake": lambda label, p: ("satake", "--label", label, "--p", p),
    "local-factor": lambda label, p: ("local-factor", "--label", label, "--p", p),
    "lift --verify": lambda label, p: ("lift", *PAIR, "--p", p, "--verify"),
    "cuspidality --h/--g": lambda label, p: ("cuspidality", *PAIR, "--p", p),
    "verify miyawaki": lambda label, p: ("verify", "miyawaki"),
    "lvalue": lambda label, p: ("lvalue", *PAIR, "--s", "25"),
}


def _set(label, field, value):
    """One field of one record replaced; the label commands ask for that
    record at p = 3, and the refusal names the record and the field."""

    def mutate(records):
        (record,) = [r for r in records if r["label"] == label]
        record[field] = value

    return label, "3", mutate, f"record '{label}' has {field} {value},"


def _renumber(old, new):
    """Every record's entry at the prime old moved to new, the primes still
    increasing; the commands ask at new, and the refusal names the first
    record and the key."""

    def mutate(records):
        for record in records:
            for entry in record["eigenvalues"]:
                if entry["p"] == old:
                    entry["p"] = new

    return "Delta.12.1", str(new), mutate, f"record 'Delta.12.1' has an entry at p = {new},"


#: row -> (label and p the label commands ask for, the mutation of the
#: records list, the refusal that stderr must hold)
ROWS = {
    "Delta.12.1 weight 10^40": _set("Delta.12.1", "weight", 10**40),
    "SK.14.2 weight 10^40": _set("SK.14.2", "weight", 10**40),
    "g26.26.1 weight 10^7": _set("g26.26.1", "weight", 10**7),
    "g26.26.1 weight 1": _set("g26.26.1", "weight", 1),
    "g26.26.1 degree 3": _set("g26.26.1", "degree", 3),
    "p = 5 renumbered 4": _renumber(5, 4),
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
    label, p, mutate, refusal = ROWS[row]
    data = json.loads(json.dumps(stock))
    mutate(data["records"])
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(data))
    path_env = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_env}
    # All commands of the row at once, each given DEADLINE_S from the start.
    start = time.monotonic()
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "spinlift.cli", "--fixtures", str(path), *argv(label, p)],
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
