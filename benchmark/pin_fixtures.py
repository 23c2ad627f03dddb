"""Regenerate the pinned fixture hashes in ``fixtures_sha256.json``.

The fixtures workload checks every file it writes against these hashes, so
a change to the series engine must keep ``fixtures.json`` byte-identical.
The pins cover every prime bound the workload can draw (1800..2000) and the
bounds its set-up and the CLI workload write (19, 200, 1000).

Run from the repository root:  python3 benchmark/pin_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spinlift import modforms  # noqa: E402

BOUNDS = [19, 200, 1000, *range(1800, 2001)]


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        path = Path(tmp) / "fixtures.json"
        for bound in BOUNDS:
            modforms.write_fixtures(path, bound, max(modforms.DEFAULT_ORDER, bound + 1))
            pins[str(bound)] = hashlib.sha256(path.read_bytes()).hexdigest()
    text = json.dumps(pins, indent=1, sort_keys=True)
    (HERE / "fixtures_sha256.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
