"""Compare a reach run against the written allowlist of unreached code.

A reach run (``tools/reach/run.sh``: ``sitecustomize.py`` under every
entry point) leaves ``reached.tsv``: one ``path<TAB>qualname`` line per
function any entry point called, paths relative to the checkout.  This script lists every ``def`` under
``src/repro`` with the qualname Python gives it (enclosing classes and
functions joined by ``.``, ``<locals>`` after each function) and checks
the unreached ones against the allowlist, the markdown bullets

    - `src/repro/pkg/mod.py::Qual.name` — why it stays

in SKILL.md.  It exits 1 on any unreached definition that is not listed,
and on any listed entry that is reached or no longer exists::

    python tools/reach/check.py reached.tsv
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]  # the checkout
ENTRY = re.compile(r"^- `(?P<path>[^`:]+\.py)::(?P<qual>[^`]+)` — (?P<reason>\S.*)$")


def definitions(root: Path) -> dict[tuple[str, str], int]:
    """Every function definition under ``root``: (path, qualname) -> lines."""
    found: dict[tuple[str, str], int] = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                found[(path, qual)] = child.end_lineno - child.lineno + 1
                walk(child, qual + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        walk(ast.parse(file.read_text(), filename=str(file)), "", path)
    return found


def read_allowlist(path: Path) -> tuple[set[tuple[str, str]], list[str]]:
    """The listed ``(path, qualname)`` pairs, and the bullets without a reason."""
    entries, malformed = set(), []
    for line in path.read_text().splitlines():
        if line.startswith("- `src/"):
            match = ENTRY.match(line)
            if match is None:
                malformed.append(line)
            else:
                entries.add((match["path"], match["qual"]))
    return entries, malformed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reached", type=Path, help="reached.tsv of a reach run")
    args = parser.parse_args()

    defs = definitions(ROOT / "src/repro")
    reached = {
        tuple(line.split("\t", 1))
        for line in args.reached.read_text().splitlines()
        if "\t" in line
    }
    allowed, malformed = read_allowlist(ROOT / ".claude/skills/verify/SKILL.md")
    unreached = {key: lines for key, lines in defs.items() if key not in reached}

    problems = [f"malformed allowlist line: {line}" for line in malformed]
    problems += [
        f"unreached, not on the allowlist: {path}::{qual}"
        for path, qual in sorted(unreached.keys() - allowed)
    ]
    problems += [
        f"on the allowlist but reached: {path}::{qual}"
        for path, qual in sorted(allowed & reached)
    ]
    problems += [
        f"on the allowlist but not defined: {path}::{qual}"
        for path, qual in sorted(allowed - defs.keys())
    ]
    for problem in problems:
        print(problem)
    print(
        f"{len(defs)} definitions, {len(defs) - len(unreached)} reached, "
        f"{len(unreached)} unreached ({sum(unreached.values())} lines), "
        f"{len(allowed)} allowlisted"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
