"""Rewrite ``tests/golden.json`` from the current code.

Run from the repository root after a change that moves an output on
purpose, and name the moved keys in CHANGES.md::

    PYTHONPATH=src python tools/update_golden.py

It prints each key that moved against the old file.  The trace cache is a
fresh temporary directory, so nothing cached by older code is reused.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.golden import GOLDEN_PATH, compute_golden, moved_keys  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        golden = compute_golden(Path(cache_dir))
    if GOLDEN_PATH.exists():
        for key in moved_keys(json.loads(GOLDEN_PATH.read_text()), golden):
            print(f"moved: {key}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
