"""Tests for repro.lintkit: rule fixtures, pragmas, reports, CLI, self-check."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

from repro.lintkit import Rule, lint_paths, render_json

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


def lint_snippets(tmp_path: Path, files: dict[str, str], **kwargs):
    """Write ``files`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_paths([tmp_path], root=tmp_path, **kwargs)


def codes(result) -> list[str]:
    return [diag.code for diag in result.diagnostics]


# ----------------------------------------------------------------------
# REP001: unseeded randomness
# ----------------------------------------------------------------------


def test_rep001_flags_legacy_np_random(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import numpy as np\n"
        "x = np.random.rand(4)\n"
        "y = np.random.choice([1, 2])\n"
    )})
    assert codes(result) == ["REP001", "REP001"]
    assert "legacy global state" in result.diagnostics[0].message


def test_rep001_flags_stdlib_random_and_from_import(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import random\n"
        "from random import choice\n"
        "r = random.random()\n"
    )})
    assert codes(result) == ["REP001", "REP001"]  # the from-import + the call


def test_rep001_flags_seedless_constructors(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import numpy as np\n"
        "a = np.random.default_rng()\n"
        "b = np.random.SFC64()\n"
        "c = np.random.SeedSequence()\n"
        "d = np.random.RandomState(3)\n"
    )})
    assert codes(result) == ["REP001"] * 4


def test_rep001_allows_seeded_generator_threading(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import numpy as np\n"
        "rng = np.random.default_rng(7)\n"
        "fill = np.random.Generator(np.random.SFC64(int(rng.integers(2**63))))\n"
        "def f(r: np.random.Generator | None = None):\n"
        "    return (r or np.random.default_rng(0)).normal()\n"
    )})
    assert codes(result) == []


# ----------------------------------------------------------------------
# REP002: wall-clock reads
# ----------------------------------------------------------------------


def test_rep002_flags_clock_reads(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "from time import monotonic as mono\n"
        "from datetime import datetime\n"
        "a = time.time()\n"
        "b = time.perf_counter()\n"
        "c = mono()\n"
        "d = datetime.now()\n"
        "time.sleep(0.1)\n"  # sleeping is not a clock *read*
    )})
    assert codes(result) == ["REP002"] * 4


def test_rep002_allows_obs_package(tmp_path):
    result = lint_snippets(tmp_path, {"obs/tracing.py": (
        "import time\n"
        "t0 = time.perf_counter()\n"
    )})
    assert codes(result) == []


def test_pragma_suppresses_same_and_previous_line(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "a = time.time()  # lint: allow[REP002] -- justified\n"
        "# lint: allow[REP002] -- justified on the line above\n"
        "b = time.time()\n"
        "c = time.time()  # lint: allow[REP001] -- wrong code, no effect\n"
        "d = time.time()  # lint: allow[*]\n"
    )})
    assert codes(result) == ["REP002"]  # only the wrong-code line survives
    assert result.diagnostics[0].line == 5
    assert result.suppressed_pragma == 3


def test_pragma_on_first_line_of_file(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "from random import choice  # lint: allow[REP001] -- seeded upstream\n"
    )})
    assert codes(result) == []
    assert result.suppressed_pragma == 1


def test_pragma_on_multiline_statement_closing_line(tmp_path):
    """A finding spanning lines accepts a pragma on its *closing* line."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "a = time.time(\n"
        ")  # lint: allow[REP002] -- pragma on the closing paren line\n"
    )})
    assert codes(result) == []
    assert result.suppressed_pragma == 1


class _EveryDefRule(Rule):
    """Test-only rule anchoring a finding at every function definition."""

    code = "TST001"
    name = "every-def"
    description = "flags each def (exercises decorated-def pragma spans)"

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef):
                yield ctx.diagnostic(self.code, node, f"def {node.name}")


def test_pragma_above_decorator_stack_covers_the_def(tmp_path):
    """For decorated defs the pragma window starts above the *decorators*,
    even though the diagnostic anchors at the ``def`` line itself."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "# lint: allow[TST001] -- suppressed above the decorator stack\n"
        "@property\n"
        "@staticmethod\n"
        "def covered():\n"
        "    return 1\n"
        "@property\n"
        "def uncovered():\n"
        "    return 2\n"
        "def inline():  # lint: allow[TST001]\n"
        "    return 3\n"
    )}, rules=[_EveryDefRule()])
    assert codes(result) == ["TST001"]
    assert "uncovered" in result.diagnostics[0].message
    assert result.suppressed_pragma == 2


def test_rep001_catches_unseeded_call_added_to_real_tree(tmp_path):
    """Acceptance check: a deliberate np.random.rand in generator code."""
    generator_src = (SRC_TREE / "workloads" / "generator.py").read_text()
    generator_src += "\n\ndef _sloppy():\n    return np.random.rand(8)\n"
    result = lint_snippets(
        tmp_path, {"workloads/generator.py": generator_src}, select=["REP001"]
    )
    assert codes(result) == ["REP001"]
    assert "np.random.rand" in result.diagnostics[0].snippet


# ----------------------------------------------------------------------
# REP004: silent broad except
# ----------------------------------------------------------------------


def test_rep004_flags_silent_broad_handlers(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        pass\n"
        "def g():\n"
        "    try:\n"
        "        work()\n"
        "    except (ValueError, BaseException):\n"
        "        log('oops')\n"
        "def h():\n"
        "    try:\n"
        "        work()\n"
        "    except:\n"
        "        return None\n"
    )})
    assert codes(result) == ["REP004"] * 3


def test_rep004_allows_reraise_counter_and_narrow(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        raise\n"
        "def g():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        _SWALLOWED.inc()\n"
        "def h():\n"
        "    try:\n"
        "        work()\n"
        "    except (OSError, ValueError):\n"
        "        pass\n"
    )})
    assert codes(result) == []


# ----------------------------------------------------------------------
# REP005: unsorted iteration feeding sinks
# ----------------------------------------------------------------------


def test_rep005_flags_unsorted_iteration_near_hashing(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import hashlib\n"
        "def digest(d):\n"
        "    h = hashlib.sha256()\n"
        "    for value in d.values():\n"
        "        h.update(value)\n"
        "    return h.hexdigest()\n"
        "def dispatch(pool, tasks):\n"
        "    return [pool.submit(t) for t in {'a', 'b'}]\n"
    )})
    assert codes(result) == ["REP005", "REP005"]


def test_rep005_allows_sorted_iteration_and_plain_functions(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import hashlib\n"
        "def digest(d):\n"
        "    h = hashlib.sha256()\n"
        "    for key, value in sorted(d.items()):\n"
        "        h.update(value)\n"
        "    return h.hexdigest()\n"
        "def harmless(d):\n"
        "    return [v for v in d.values()]\n"  # no sink in this function
    )})
    assert codes(result) == []


# ----------------------------------------------------------------------
# REP006: metric/span names
# ----------------------------------------------------------------------


def test_rep006_flags_bad_names_and_double_registration(tmp_path):
    result = lint_snippets(tmp_path, {
        "a.py": (
            "from repro.obs import Counter, span\n"
            "_HITS = Counter('cache.hit')\n"
            "_BAD = Counter('CacheMisses')\n"
            "def f():\n"
            "    with span('Bad Name'):\n"
            "        pass\n"
        ),
        "b.py": (
            "from repro.obs.metrics import Counter\n"
            "_ALSO_HITS = Counter('cache.hit')\n"
        ),
    })
    # The two bad names only: duplicate registration is the metrics
    # registry's import-time check (tests/test_obs.py), not a lint rule.
    assert codes(result) == ["REP006", "REP006"]
    assert {d.line for d in result.diagnostics} == {3, 5}


def test_rep006_ignores_collections_counter(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "from collections import Counter\n"
        "c = Counter('NOT a metric name')\n"
    )})
    assert codes(result) == []


# ----------------------------------------------------------------------
# REP007: known-slow idioms in loops (core/ and analysis/ only)
# ----------------------------------------------------------------------


def test_rep007_flags_slow_calls_in_loops(tmp_path):
    result = lint_snippets(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def f(block, pearson_correlation):\n"
        "    out = np.array([])\n"
        "    for row in block:\n"
        "        r = np.corrcoef(row, block[0])\n"
        "        s = np.fft.rfft(row)\n"
        "        out = np.append(out, r)\n"
        "    i = 0\n"
        "    while i < len(block):\n"
        "        pearson_correlation(block[i], block[0])\n"
        "        i += 1\n"
    )})
    assert codes(result) == ["REP007"] * 4
    assert "batched" in result.diagnostics[0].fix_hint


def test_rep007_flags_comprehensions_but_not_first_iter(tmp_path):
    result = lint_snippets(tmp_path, {"analysis/mod.py": (
        "import numpy as np\n"
        "def f(block):\n"
        "    a = [np.fft.rfft(row) for row in block]\n"
        "    # The first generator's iterable evaluates once, not per item.\n"
        "    b = [row.sum() for row in np.fft.rfft(block, axis=1)]\n"
        "    c = [row for row in block if np.corrcoef(row, block[0])[0, 1] > 0]\n"
    )})
    assert codes(result) == ["REP007"] * 2
    assert [d.line for d in result.diagnostics] == [3, 6]


def test_rep007_ignores_calls_outside_loops_and_other_packages(tmp_path):
    result = lint_snippets(tmp_path, {
        "core/mod.py": (
            "import numpy as np\n"
            "spectrum = np.fft.rfft(np.ones(16))\n"  # once, not per series
        ),
        "experiments/mod.py": (
            "import numpy as np\n"
            "def f(block):\n"
            "    return [np.corrcoef(r, block[0]) for r in block]\n"
        ),
    })
    assert codes(result) == []


def test_rep007_pragma_suppression(tmp_path):
    result = lint_snippets(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def f(block):\n"
        "    for row in block:\n"
        "        # lint: allow[REP007] -- scalar reference path\n"
        "        np.fft.rfft(row)\n"
    )})
    assert codes(result) == []
    assert result.suppressed_pragma == 1


# ----------------------------------------------------------------------
# report schemas, selection, parse errors
# ----------------------------------------------------------------------

_VIOLATION = "import time\nt = time.time()\n"


def test_json_report_schema(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": _VIOLATION})
    document = json.loads(render_json(result))
    assert document["schema_version"] == 2
    assert document["exit_code"] == 1
    assert document["counts"] == {"REP002": 1}
    assert document["suppressed"] == {"pragma": 0}
    (finding,) = document["findings"]
    assert set(finding) == {
        "code", "message", "path", "line", "col", "snippet", "fix_hint",
    }
    assert finding["path"] == "mod.py" and finding["line"] == 2


def test_select_and_ignore_filtering(tmp_path):
    files = {"mod.py": "import time\nimport random\nt = time.time()\n"}
    # A plain ``import random`` alone does not trip REP001; only use does.
    assert codes(lint_snippets(tmp_path, files)) == ["REP002"]
    files["mod.py"] += "r = random.random()\n"
    result = lint_snippets(tmp_path, files)
    assert sorted(codes(result)) == ["REP001", "REP002"]
    assert codes(lint_snippets(tmp_path, files, select=["REP001"])) == ["REP001"]
    assert codes(lint_snippets(tmp_path, files, ignore=["REP001"])) == ["REP002"]


def test_parse_error_reported_not_ignorable(tmp_path):
    result = lint_snippets(
        tmp_path, {"broken.py": "def f(:\n"}, select=["REP001"]
    )
    assert codes(result) == ["REP000"]
    assert result.exit_code == 1


# ----------------------------------------------------------------------
# self-check: the shipped tree is clean, through both entry points
# ----------------------------------------------------------------------


def test_shipped_tree_is_clean_via_api():
    result = lint_paths([SRC_TREE], root=REPO_ROOT)
    assert [d.render() for d in result.diagnostics] == []
    assert result.files_checked > 70
    assert result.suppressed_pragma > 0  # the documented scheduler pragmas


def test_shipped_tree_is_clean_via_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "json"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(proc.stdout)
    assert document["findings"] == []


def test_standalone_module_exits_nonzero_on_violations(tmp_path):
    (tmp_path / "mod.py").write_text(_VIOLATION)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lintkit", str(tmp_path)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "REP002" in proc.stdout
