"""Single-parse AST framework for the determinism & invariant linter.

The pipeline's reproducibility contract -- content-addressed trace caching,
registry-order metric merging, deterministic fault replay -- rests on
invariants that generic linters cannot express: *who* may read the wall
clock, *which* randomness sources are seeded, *whether* iteration order
can leak into a hash.  This module provides the machinery the
repo-specific rules in :mod:`repro.lintkit.rules` share:

* :class:`FileContext` -- one ``ast.parse`` per file, plus the source
  lines and the ``# lint: allow[...]`` pragma index, handed to every rule
  so N rules never mean N parses;
* :class:`Rule` -- the visitor-style base class.  ``check(ctx)`` yields
  per-file findings.  Rules that need the resolved call graph subclass
  :class:`~repro.lintkit.project.ProjectRule` instead and implement
  ``check_project`` over the shared
  :class:`~repro.lintkit.project.ProjectContext`;
* :class:`Diagnostic` -- one finding with file/line/col, the offending
  source snippet and a fix hint;
* :func:`lint_paths` -- the runner: collect files, parse once, run every
  rule, apply pragma suppression and code selection, sort.

Suppression pragma::

    deadline = time.monotonic() + 3600.0  # lint: allow[REP002] -- backstop clock

A pragma suppresses the listed codes (or every code, with ``allow[*]``)
on its own line and on the line directly below it, so a justification
comment may sit above a long statement.  For findings anchored at
multi-line constructs the window extends over the whole span -- a pragma
on the closing line of a wrapped call works -- and for decorated defs it
extends up from the first decorator, so the comment may sit above the
decorator stack.  See ``docs/LINTING.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Code reported for files that do not parse at all.
PARSE_ERROR_CODE = "REP000"

_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

#: Directory names never descended into when collecting files.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache"})


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, renderable as text or JSON."""

    code: str
    message: str
    #: Posix-style path relative to the lint root.
    path: str
    line: int
    col: int
    #: The stripped source line the finding points at.
    snippet: str = ""
    #: How to fix (or legitimately suppress) the finding.
    fix_hint: str = ""
    #: Last line of the anchoring construct (0: same as ``line``).  Only
    #: widens the pragma-suppression window; excluded from reports.
    end_line: int = 0
    #: First line pragmas may sit above (0: same as ``line``); for
    #: decorated defs this is the first decorator's line.
    pragma_start: int = 0

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict:
        """JSON-ready rendering (the ``findings`` rows of the JSON report)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
            "fix_hint": self.fix_hint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text


class FileContext:
    """One parsed source file, shared by every rule."""

    def __init__(
        self, path: Path, rel: str, source: str, tree: ast.Module | None = None
    ) -> None:
        self.path = path
        #: Posix-style path relative to the lint root (diagnostic ``path``).
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        #: Parsed once here, or handed in pre-parsed by :func:`lint_paths`.
        self.tree = ast.parse(source) if tree is None else tree
        #: line -> codes allowed on that line (``{"*"}`` allows everything).
        self.pragmas: dict[int, set[str]] = _parse_pragmas(self.lines)

    @property
    def parts(self) -> tuple[str, ...]:
        """Path components of :attr:`rel` (for package-scoped allowlists)."""
        return tuple(Path(self.rel).parts)

    def allowed(self, code: str, line: int) -> bool:
        """Whether a pragma suppresses ``code`` at ``line``.

        Pragmas apply to their own line and to the line directly below,
        so a justification may precede a long statement.
        """
        return self.allowed_span(code, line, line)

    def allowed_span(self, code: str, start: int, end: int) -> bool:
        """Whether a pragma suppresses ``code`` anywhere in [start-1, end].

        ``start``/``end`` bound the anchoring construct: a pragma may sit
        on any of its lines, on its closing line (multi-line statements),
        or on the line above ``start`` (above a decorator stack).
        """
        lo = min(start, end) - 1
        hi = max(start, end)
        for pragma_line, pragma_codes in self.pragmas.items():
            if lo <= pragma_line <= hi and ("*" in pragma_codes or code in pragma_codes):
                return True
        return False

    def snippet_at(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def diagnostic(
        self, code: str, node: ast.AST, message: str, fix_hint: str = ""
    ) -> Diagnostic:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        end_line = getattr(node, "end_lineno", None) or line
        pragma_start = line
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            pragma_start = min([d.lineno for d in decorators] + [line])
        return Diagnostic(
            code=code,
            message=message,
            path=self.rel,
            line=line,
            col=col,
            snippet=self.snippet_at(line),
            fix_hint=fix_hint,
            end_line=end_line,
            pragma_start=pragma_start,
        )


def _parse_pragmas(lines: Sequence[str]) -> dict[int, set[str]]:
    pragmas: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "lint:" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            if codes:
                pragmas[lineno] = codes
    return pragmas


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`code`/:attr:`name`/:attr:`description` and
    implement :meth:`check`, which sees one file at a time.
    """

    code: str = "REP999"
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield per-file findings."""
        return iter(())


@dataclass
class LintResult:
    """Outcome of one :func:`lint_paths` run."""

    diagnostics: list[Diagnostic]
    files_checked: int
    suppressed_pragma: int = 0

    @property
    def counts(self) -> dict[str, int]:
        """Surviving findings per rule code, sorted by code."""
        out: dict[str, int] = {}
        for diag in self.diagnostics:
            out[diag.code] = out.get(diag.code, 0) + 1
        return dict(sorted(out.items()))

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files listed directly, dirs walked).

    The walk order is sorted so diagnostics are stable across filesystems.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS or any(p.endswith(".egg-info") for p in candidate.parts):
                continue
            out.append(candidate)
    # De-duplicate while keeping order (a file may be reachable twice).
    seen: set[Path] = set()
    unique = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _resolve_root(files: Sequence[Path], root: str | Path | None) -> Path:
    if root is not None:
        return Path(root).resolve()
    cwd = Path.cwd().resolve()
    resolved = [f.resolve() for f in files]
    if resolved and all(cwd in f.parents for f in resolved):
        return cwd
    if not resolved:
        return cwd
    # Fall back to the deepest common ancestor of the linted files.
    common = resolved[0].parent
    for f in resolved[1:]:
        while common not in f.parents and common != f.parent:
            common = common.parent
    return common


def _filter_codes(
    code: str, select: set[str] | None, ignore: set[str] | None
) -> bool:
    """Whether findings of ``code`` survive --select/--ignore filtering."""
    if code == PARSE_ERROR_CODE:
        return True  # a file that does not parse is never ignorable
    if select is not None and code not in select:
        return False
    if ignore is not None and code in ignore:
        return False
    return True


def lint_paths(
    paths: Iterable[str | Path],
    *,
    root: str | Path | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Run every rule over the Python files under ``paths``.

    ``select``/``ignore`` filter by rule code (select wins first, then
    ignore removes); rules whose code is filtered out never run at all.
    Pragma suppression is always applied.  Each file is parsed exactly
    once.
    """
    if rules is None:
        from repro.lintkit.rules import default_rules

        rules = default_rules()
    select_set = {c.strip() for c in select} if select is not None else None
    ignore_set = {c.strip() for c in ignore} if ignore is not None else None
    rules = [r for r in rules if _filter_codes(r.code, select_set, ignore_set)]

    files = iter_python_files(paths)
    resolved_root = _resolve_root(files, root)
    rels: list[str] = []
    for path in files:
        try:
            rels.append(path.resolve().relative_to(resolved_root).as_posix())
        except ValueError:
            rels.append(path.as_posix())
    diagnostics: list[Diagnostic] = []
    contexts: dict[str, FileContext] = {}
    for path, rel in zip(files, rels, strict=True):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    snippet=(exc.text or "").strip(),
                    fix_hint="fix the syntax error; no rule ran on this file",
                )
            )
            continue
        ctx = FileContext(path, rel, source, tree=tree)
        contexts[rel] = ctx
        for rule in rules:
            diagnostics.extend(rule.check(ctx))

    from repro.lintkit.project import ProjectContext, ProjectRule

    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if project_rules:
        project = ProjectContext(list(contexts.values()), root=resolved_root)
        for rule in project_rules:
            diagnostics.extend(rule.check_project(project))

    kept: list[Diagnostic] = []
    suppressed = 0
    for diag in diagnostics:
        if not _filter_codes(diag.code, select_set, ignore_set):
            continue
        ctx = contexts.get(diag.path)
        if ctx is not None and ctx.allowed_span(
            diag.code, diag.pragma_start or diag.line, max(diag.end_line, diag.line)
        ):
            suppressed += 1
            continue
        kept.append(diag)
    kept.sort(key=Diagnostic.sort_key)
    return LintResult(
        diagnostics=kept,
        files_checked=len(files),
        suppressed_pragma=suppressed,
    )
