"""Two structural rules over ``src/repro``, checked on the parsed source.

* **Silent broad except.**  A bare, ``Exception`` or ``BaseException``
  handler must re-raise or count the swallow on a metric (``.inc`` /
  ``.observe``); otherwise corruption and injected faults vanish from the
  manifest.
* **Slow idiom in a loop.**  Inside ``core/`` and ``analysis/`` a loop
  body or comprehension element may not call ``np.fft.*``,
  ``np.corrcoef``, ``np.append`` or ``pearson_correlation``: the batched
  kernels (``pairwise_pearson`` and ``classify_block`` with its short
  block ACF ``short_acf``, label-identical to the scalar classifier)
  replaced exactly those per-series shapes.

Each site that may break a rule is listed below, keyed by module and
function, with its reason.  A new site fails the test until it is fixed
or listed; a listed site that no longer matches fails it too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parent.parent / "src"

SILENT_EXCEPT_ALLOWED = {
    ("repro.experiments.parallel", "_worker_entry"): (
        "worker last resort: the error crosses the pipe and the scheduler "
        "counts it on task.failed / retry.attempts"
    ),
    ("repro.experiments.parallel", "_schedule.start"): (
        "inline attempt: contained like a worker's error, recorded on the "
        "task and counted on task.failed / retry.attempts"
    ),
}

SLOW_IN_LOOP_ALLOWED = {
    ("repro.core.correlation", "_node_level_correlation_reference"): (
        "scalar reference path the batched node correlation is tested against"
    ),
}

_BROAD = {"Exception", "BaseException"}
_SLOW_NUMPY = {"numpy.corrcoef", "numpy.append"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _scoped(node: ast.AST, scope: str = "") -> Iterator[tuple[ast.AST, str]]:
    """Every node under ``node`` with the dotted name of its enclosing def/class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield child, inner
        yield from _scoped(child, inner)


def _dotted(node: ast.AST) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> imported dotted origin (``np`` -> ``numpy``)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def silent_broad_excepts(tree: ast.AST) -> set[str]:
    """Functions holding a broad handler that neither re-raises nor counts."""
    found = set()
    for node, scope in _scoped(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if not any(t is None or (_dotted(t) or "").split(".")[-1] in _BROAD for t in types):
            continue
        observable = any(
            isinstance(inner, ast.Raise)
            or (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ("inc", "observe")
            )
            for inner in ast.walk(node)
        )
        if not observable:
            found.add(scope)
    return found


def _per_iteration(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension that run once per element."""
    if isinstance(node, _LOOPS):
        return node.body + node.orelse
    parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    for position, gen in enumerate(node.generators):
        # The first iterable is evaluated once; later ones once per element.
        parts += ([gen.iter] if position else []) + gen.ifs
    return parts


def slow_calls_in_loops(tree: ast.AST) -> set[str]:
    """Functions calling a per-series FFT/Pearson/append inside a loop."""
    aliases = _aliases(tree)
    found = set()
    for loop, scope in _scoped(tree):
        if not isinstance(loop, _LOOPS + _COMPREHENSIONS):
            continue
        for part in _per_iteration(loop):
            for call in ast.walk(part):
                if not isinstance(call, ast.Call):
                    continue
                name = _dotted(call.func) or ""
                head, _, rest = name.partition(".")
                origin = ".".join(filter(None, [aliases.get(head, head), rest]))
                if (
                    origin.startswith("numpy.fft.")
                    or origin in _SLOW_NUMPY
                    or origin.split(".")[-1] == "pearson_correlation"
                ):
                    found.add(scope)
    return found


def _tree_sites(rule, *, packages: tuple[str, ...] = ()) -> set[tuple[str, str]]:
    sites = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("")
        if packages and relative.parts[1] not in packages:
            continue
        module = ".".join(relative.parts).removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))
        sites |= {(module, scope) for scope in rule(tree)}
    return sites


def test_no_silent_broad_excepts_outside_the_allowlist():
    assert _tree_sites(silent_broad_excepts) == set(SILENT_EXCEPT_ALLOWED)


def test_no_slow_idioms_in_hot_loops_outside_the_allowlist():
    sites = _tree_sites(slow_calls_in_loops, packages=("core", "analysis"))
    assert sites == set(SLOW_IN_LOOP_ALLOWED)


def test_silent_broad_except_rule_on_snippets():
    flagged = """
def bare():
    try: f()
    except: pass
def broad():
    try: f()
    except (OSError, Exception): log()
def base():
    try: f()
    except builtins.BaseException: pass
"""
    clean = """
def reraises():
    try: f()
    except Exception: cleanup(); raise
def counts():
    try: f()
    except Exception: _FAILED.inc()
def narrow():
    try: f()
    except (OSError, ValueError): pass
"""
    assert silent_broad_excepts(ast.parse(flagged)) == {"bare", "broad", "base"}
    assert silent_broad_excepts(ast.parse(clean)) == set()


def test_slow_idiom_rule_on_snippets():
    flagged = """
import numpy as np
from numpy.fft import rfft
from repro.analysis.stats import pearson_correlation as pc
class K:
    def fft_loop(self, rows):
        for row in rows: np.fft.rfft(row)
def alias_comp(rows):
    return [rfft(r) for r in rows]
def pearson_while(a, b):
    while a: pc(a.pop(), b)
def append_loop(xs):
    out = np.empty(0)
    for x in xs: out = np.append(out, x)
def corr_dict(rows):
    return {i: np.corrcoef(r, r) for i, r in enumerate(rows)}
"""
    clean = """
import numpy as np
def batched(block):
    return np.fft.rfft(block, axis=1)
def first_iterable_runs_once(block):
    return [row for row in np.fft.rfft(block, axis=1)]
def other_numpy_in_loop(rows):
    for row in rows: np.mean(row)
"""
    assert slow_calls_in_loops(ast.parse(flagged)) == {
        "K.fft_loop", "alias_comp", "pearson_while", "append_loop", "corr_dict",
    }
    assert slow_calls_in_loops(ast.parse(clean)) == set()
