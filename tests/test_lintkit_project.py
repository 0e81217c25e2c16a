"""Tests for lintkit v2: ProjectContext, call graph, and REP008-REP010.

Fixture trees exercise each project rule in isolation; the acceptance
tests at the bottom inject a real violation into a copy of the shipped
sources (a ``time.sleep`` in a serving handler) and assert the rules
catch exactly it.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lintkit import lint_paths
from repro.lintkit.project import ProjectContext, _module_name

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"

PROJECT_CODES = ["REP008", "REP009", "REP010"]


def lint_snippets(tmp_path: Path, files: dict[str, str], **kwargs):
    """Write ``files`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_paths([tmp_path], root=tmp_path, **kwargs)


def codes(result) -> list[str]:
    return [diag.code for diag in result.diagnostics]


def messages(result) -> str:
    return "\n".join(diag.message for diag in result.diagnostics)


# ----------------------------------------------------------------------
# ProjectContext plumbing
# ----------------------------------------------------------------------


def test_module_name_strips_src_and_names_packages():
    assert _module_name("src/repro/serving/service.py") == "repro.serving.service"
    assert _module_name("src/repro/serving/__init__.py") == "repro.serving"
    assert _module_name("tools/x.py") == "tools.x"


def test_call_graph_resolves_import_aliasing(tmp_path):
    """``from pkg.util import pause as p`` still colors the edge."""
    result = lint_snippets(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/util.py": (
            "import time\n"
            "def pause():\n"
            "    time.sleep(1)\n"
        ),
        "pkg/app.py": (
            "from pkg.util import pause as p\n"
            "async def serve():\n"
            "    p()\n"
        ),
    }, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert "time.sleep()" in result.diagnostics[0].message
    assert "via pause" in result.diagnostics[0].message
    assert result.diagnostics[0].path.endswith("pkg/util.py")


def test_call_graph_resolves_relative_imports(tmp_path):
    result = lint_snippets(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/helpers.py": (
            "import subprocess\n"
            "def shell(cmd):\n"
            "    return subprocess.run(cmd)\n"
        ),
        "src/pkg/service.py": (
            "from .helpers import shell\n"
            "async def handler():\n"
            "    shell(['ls'])\n"
        ),
    }, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert "subprocess.run()" in result.diagnostics[0].message


# ----------------------------------------------------------------------
# REP008: blocking calls reachable from async defs
# ----------------------------------------------------------------------


def test_rep008_direct_blocking_call(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "async def tick():\n"
        "    time.sleep(0.5)\n"
    )}, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert "inside async 'tick'" in result.diagnostics[0].message


def test_rep008_transitive_through_sync_helpers(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "def inner():\n"
        "    time.sleep(1)\n"
        "def outer():\n"
        "    inner()\n"
        "async def loop():\n"
        "    outer()\n"
    )}, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert "via outer -> inner" in result.diagnostics[0].message


def test_rep008_to_thread_reference_is_clean(tmp_path):
    """Passing the blocking callable as a *reference* never trips."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "import time\n"
        "async def tick():\n"
        "    await asyncio.to_thread(time.sleep, 0.5)\n"
    )}, select=["REP008"])
    assert codes(result) == []


def test_rep008_sync_only_blocking_is_clean(tmp_path):
    """Blocking calls not reachable from any async def are fine."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "def batch():\n"
        "    time.sleep(1)\n"
    )}, select=["REP008"])
    assert codes(result) == []


def test_rep008_flags_blocking_file_io_methods(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "from pathlib import Path\n"
        "async def dump(path: Path, payload: str):\n"
        "    path.write_text(payload)\n"
    )}, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert ".write_text()" in result.diagnostics[0].message


def test_rep008_async_callee_is_its_own_root(tmp_path):
    """An awaited async callee is not traversed from the caller: its own
    root reports the finding exactly once."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "import time\n"
        "async def inner():\n"
        "    time.sleep(1)\n"
        "async def outer():\n"
        "    await inner()\n"
    )}, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert "inside async 'inner'" in result.diagnostics[0].message


# ----------------------------------------------------------------------
# REP009: dropped coroutines / task handles
# ----------------------------------------------------------------------


def test_rep009_unawaited_coroutine(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "async def work():\n"
        "    return 1\n"
        "async def main():\n"
        "    work()\n"
    )}, select=["REP009"])
    assert codes(result) == ["REP009"]
    assert "never awaited" in result.diagnostics[0].message


def test_rep009_unawaited_coroutine_across_modules(tmp_path):
    result = lint_snippets(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/jobs.py": "async def flush():\n    return 0\n",
        "pkg/main.py": (
            "from pkg.jobs import flush\n"
            "async def main():\n"
            "    flush()\n"
        ),
    }, select=["REP009"])
    assert codes(result) == ["REP009"]
    assert "flush" in result.diagnostics[0].message


def test_rep009_dropped_create_task_handle(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "async def work():\n"
        "    return 1\n"
        "async def main():\n"
        "    asyncio.create_task(work())\n"
    )}, select=["REP009"])
    assert codes(result) == ["REP009"]
    assert "task handle" in result.diagnostics[0].message


def test_rep009_kept_handle_and_await_are_clean(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "async def work():\n"
        "    return 1\n"
        "async def main():\n"
        "    task = asyncio.create_task(work())\n"
        "    await work()\n"
        "    await task\n"
    )}, select=["REP009"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# REP010: state torn across an await
# ----------------------------------------------------------------------


def test_rep010_mutation_straddling_await(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "class Svc:\n"
        "    async def update(self):\n"
        "        self.host = 'a'\n"
        "        await asyncio.sleep(0)\n"
        "        self.port = 1\n"
    )}, select=["REP010"])
    assert codes(result) == ["REP010"]
    assert "await" in result.diagnostics[0].message


def test_rep010_lock_exempts_section(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "class Svc:\n"
        "    async def update(self):\n"
        "        async with self._lock:\n"
        "            self.host = 'a'\n"
        "            await asyncio.sleep(0)\n"
        "            self.port = 1\n"
    )}, select=["REP010"])
    assert codes(result) == []


def test_rep010_mutations_between_awaits_are_clean(tmp_path):
    """All mutations grouped after the last await: no torn window."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "class Svc:\n"
        "    async def update(self):\n"
        "        await asyncio.sleep(0)\n"
        "        self.host = 'a'\n"
        "        self.port = 1\n"
    )}, select=["REP010"])
    assert codes(result) == []


def test_rep010_mutator_method_counts(tmp_path):
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "class Svc:\n"
        "    async def update(self):\n"
        "        self.pending.append(1)\n"
        "        await asyncio.sleep(0)\n"
        "        self.done.add(1)\n"
    )}, select=["REP010"])
    assert codes(result) == ["REP010"]


def test_rep010_branchy_flow_merges_state(tmp_path):
    """A mutation inside one branch still tears with a later await+store."""
    result = lint_snippets(tmp_path, {"mod.py": (
        "import asyncio\n"
        "class Svc:\n"
        "    async def update(self, flag):\n"
        "        if flag:\n"
        "            self.host = 'a'\n"
        "        await asyncio.sleep(0)\n"
        "        self.port = 1\n"
    )}, select=["REP010"])
    assert codes(result) == ["REP010"]


# ----------------------------------------------------------------------
# Injected-violation acceptance tests against the real sources
# ----------------------------------------------------------------------


def _copy_real_service(tmp_path: Path) -> Path:
    target = tmp_path / "src" / "repro" / "serving" / "service.py"
    target.parent.mkdir(parents=True)
    shutil.copy(SRC_TREE / "serving" / "service.py", target)
    return target


def test_acceptance_shipped_service_copy_is_clean(tmp_path):
    _copy_real_service(tmp_path)
    result = lint_paths([tmp_path], root=tmp_path, select=PROJECT_CODES)
    assert codes(result) == []


def test_acceptance_injected_sleep_in_serving_handler(tmp_path):
    """A time.sleep in the sync batch-apply path is caught transitively."""
    target = _copy_real_service(tmp_path)
    source = target.read_text()
    assert "import asyncio" in source and "        applied = 0\n" in source
    source = source.replace("import asyncio", "import asyncio\nimport time", 1)
    source = source.replace(
        "        applied = 0\n", "        applied = 0\n        time.sleep(0.01)\n", 1
    )
    target.write_text(source)
    result = lint_paths([tmp_path], root=tmp_path, select=["REP008"])
    assert codes(result) == ["REP008"]
    assert "time.sleep()" in result.diagnostics[0].message
    assert "reachable from async" in result.diagnostics[0].message
    assert "apply_records" in result.diagnostics[0].message


# ----------------------------------------------------------------------
# ProjectContext is importable and indexes the real tree
# ----------------------------------------------------------------------


def test_project_context_indexes_real_serving_layer():
    result = lint_paths([SRC_TREE], root=REPO_ROOT, select=["REP008"])
    assert codes(result) == []
    # Build the context directly for a structural sanity check.
    from repro.lintkit.framework import FileContext

    path = SRC_TREE / "serving" / "service.py"
    rel = path.relative_to(REPO_ROOT).as_posix()
    ctx = FileContext(path, rel, path.read_text())
    project = ProjectContext([ctx], root=REPO_ROOT)
    qualname = "repro.serving.service.KnowledgeBaseService.start"
    assert qualname in project.functions
    assert project.functions[qualname].is_async
