"""The pipeline's outputs on seeds 7 and 1 equal ``tests/golden.json``.

See :mod:`tests.golden` for what is digested and how to rewrite the file
after a change that moves an output on purpose.
"""

from __future__ import annotations

import json

from tests.golden import GOLDEN_PATH, compute_golden, identity, moved_keys


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["identity"] == identity(), (
        f"golden file is for another generator: it has {golden['identity']}, "
        f"this code is {identity()}; rerun tools/update_golden.py"
    )
    moved = moved_keys(golden, compute_golden(tmp_path))
    assert not moved, "outputs moved from tests/golden.json: " + ", ".join(moved)
