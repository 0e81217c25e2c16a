"""Whole-program context for the linter: modules, symbols, call graph.

The per-file rules (REP001, REP002, REP004-REP007) see one ``ast`` tree
at a time, which is exactly the wrong shape for the serving layer's
failure modes: a ``time.sleep`` buried two *sync* calls below an
``async def`` stalls the event loop just as surely as one written
inline, and no single file shows the chain.  :class:`ProjectContext` closes that gap:

* every linted file's tree is indexed once into a **function registry**
  (module-level functions, methods, nested defs) keyed by dotted
  qualname (``repro.serving.service.KnowledgeBaseService.start``);
* per-module **import resolution** maps local names to canonical dotted
  origins -- ``from x import y as z`` and relative imports included --
  so a call expression resolves to either a project-internal function,
  an external canonical name (``time.sleep``), or honestly ``unknown``;
* each function records its **resolved calls** in source order, giving
  rules a lightweight call graph with async "coloring": which functions
  are ``async def``, and which sync functions are reachable from one.

:class:`ProjectRule` is the rule base class for analyses that need the
whole program: after the per-file pass, :func:`~repro.lintkit.framework.
lint_paths` builds one ``ProjectContext`` and hands it to every project
rule's :meth:`~ProjectRule.check_project`.  Everything here is pure
standard library, like the rest of the package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.lintkit.framework import Diagnostic, FileContext, Rule


def _module_name(rel: str) -> str:
    """Dotted module name for a root-relative path (``src/`` stripped).

    ``src/repro/serving/service.py`` -> ``repro.serving.service``;
    a package ``__init__.py`` names the package itself.
    """
    parts = list(Path(rel).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    last = parts[-1]
    if last == "__init__.py":
        parts = parts[:-1]
    elif last.endswith(".py"):
        parts[-1] = last[: -len(".py")]
    return ".".join(p for p in parts if p)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleImports:
    """Import resolution for one module, relative imports included.

    Unlike the per-file ``_ImportTracker`` (which skips ``from . import
    x`` because it has no idea what ``.`` means), this resolver knows the
    module's own dotted name, so ``from .backends import apply_record``
    inside ``repro.serving.service`` canonicalizes to
    ``repro.serving.backends.apply_record``.
    """

    def __init__(self, tree: ast.AST, module_name: str, is_package: bool) -> None:
        self.modules: dict[str, str] = {}
        self.symbols: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _relative_base(
                        module_name, is_package, node.level, node.module
                    )
                elif node.module:
                    base = node.module
                else:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    canonical = f"{base}.{alias.name}" if base else alias.name
                    self.symbols[alias.asname or alias.name] = canonical
                    # ``from pkg import mod`` may bind a *module*.
                    self.modules.setdefault(alias.asname or alias.name, canonical)

    def canonical(self, dotted: str) -> str | None:
        """Canonical dotted origin of a local dotted name, if known."""
        head, _, rest = dotted.partition(".")
        for table in (self.modules, self.symbols):
            if head in table:
                base = table[head]
                return f"{base}.{rest}" if rest else base
        return None


def _relative_base(
    module_name: str, is_package: bool, level: int, module: str | None
) -> str:
    """Absolute dotted base of a ``from ...x import y`` statement."""
    parts = module_name.split(".") if module_name else []
    if not is_package and parts:
        parts = parts[:-1]  # one dot reaches the enclosing package
    extra = level - 1
    parts = parts[: len(parts) - extra] if extra and extra <= len(parts) else (
        parts if not extra else []
    )
    base = ".".join(parts)
    if module:
        base = f"{base}.{module}" if base else module
    return base


@dataclass
class ResolvedCall:
    """One call site inside a function, with its resolved target."""

    node: ast.Call
    #: ``"internal"`` (a project function; ``target`` is its qualname),
    #: ``"external"`` (canonical dotted origin, e.g. ``time.sleep``), or
    #: ``"unknown"`` (``target`` is the raw dotted text, possibly None).
    kind: str
    target: str | None
    #: The call is its own expression statement (``f()`` on a line alone).
    is_expr_stmt: bool = False
    #: The call sits directly under an ``await``.
    awaited: bool = False


@dataclass
class FunctionInfo:
    """One function/method/nested def in the project registry."""

    qualname: str
    module: str
    ctx: FileContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    #: Immediately enclosing class name, for ``self.x()`` resolution.
    class_name: str | None = None
    #: Qualname of the enclosing function, for nested defs.
    parent: str | None = None
    calls: list[ResolvedCall] = field(default_factory=list)

    @property
    def display(self) -> str:
        """Qualname without the module prefix (for messages)."""
        prefix = f"{self.module}."
        if self.module and self.qualname.startswith(prefix):
            return self.qualname[len(prefix):]
        return self.qualname


def _own_nodes(root: ast.AST) -> list[ast.AST]:
    """Descendants of ``root`` in source order, nested scopes excluded.

    Nested ``def``/``class`` bodies belong to their own registry entries;
    ``lambda`` bodies run only when invoked, so counting their calls as
    the enclosing function's would mis-color ``to_thread(lambda: ...)``.
    """
    out: list[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            out.append(child)
            visit(child)

    visit(root)
    return out


class ProjectContext:
    """Cross-module symbol, call-graph, and async-coloring index."""

    def __init__(self, contexts: Sequence[FileContext], root: str | Path) -> None:
        self.root = Path(root)
        self.contexts: dict[str, FileContext] = {ctx.rel: ctx for ctx in contexts}
        #: rel path -> dotted module name.
        self.module_of: dict[str, str] = {}
        #: qualname -> function record.
        self.functions: dict[str, FunctionInfo] = {}
        self._imports: dict[str, ModuleImports] = {}
        for ctx in contexts:
            module = _module_name(ctx.rel)
            self.module_of[ctx.rel] = module
            self._imports[ctx.rel] = ModuleImports(
                ctx.tree, module, ctx.rel.endswith("__init__.py")
            )
            self._collect(ctx, module)
        for qualname in sorted(self.functions):
            self._resolve_calls(self.functions[qualname])

    # ------------------------------------------------------------------
    # registry construction
    # ------------------------------------------------------------------
    def _collect(self, ctx: FileContext, module: str) -> None:
        def visit(
            node: ast.AST, prefix: str, class_name: str | None, parent: str | None
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{child.name}" if prefix else child.name
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=module,
                        ctx=ctx,
                        node=child,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                        class_name=class_name,
                        parent=parent,
                    )
                    visit(child, qualname, None, qualname)
                elif isinstance(child, ast.ClassDef):
                    inner = f"{prefix}.{child.name}" if prefix else child.name
                    visit(child, inner, child.name, parent)
                elif not isinstance(child, ast.Lambda):
                    # e.g. defs under ``if TYPE_CHECKING:`` or try/except.
                    visit(child, prefix, class_name, parent)

        visit(ctx.tree, module, None, None)

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def _resolve_calls(self, fn: FunctionInfo) -> None:
        own = _own_nodes(fn.node)
        expr_stmt_ids = {
            id(node.value)
            for node in own
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        }
        awaited_ids = {
            id(node.value)
            for node in own
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
        }
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            kind, target = self._resolve_one(fn, node)
            fn.calls.append(
                ResolvedCall(
                    node=node,
                    kind=kind,
                    target=target,
                    is_expr_stmt=id(node) in expr_stmt_ids,
                    awaited=id(node) in awaited_ids,
                )
            )

    def _resolve_one(self, fn: FunctionInfo, call: ast.Call) -> tuple[str, str | None]:
        dotted = _dotted_name(call.func)
        if dotted is None:
            return "unknown", None
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls"):
            # ``self.method()`` -> the enclosing class's method, when the
            # attribute chain is exactly one level deep.
            enclosing = self._enclosing_class(fn)
            if enclosing is not None and rest and "." not in rest:
                qualname = f"{enclosing}.{rest}"
                if qualname in self.functions:
                    return "internal", qualname
            return "unknown", dotted
        if not rest:
            # Bare name: nested siblings outward, then module top-level.
            scope: FunctionInfo | None = fn
            while scope is not None:
                candidate = f"{scope.qualname}.{head}"
                if candidate in self.functions:
                    return "internal", candidate
                scope = (
                    self.functions.get(scope.parent) if scope.parent else None
                )
            candidate = f"{fn.module}.{head}" if fn.module else head
            if candidate in self.functions:
                return "internal", candidate
        else:
            # ``Cls.method()`` / ``mod.fn()`` defined in this module.
            candidate = f"{fn.module}.{dotted}" if fn.module else dotted
            if candidate in self.functions:
                return "internal", candidate
        canonical = self._imports[fn.ctx.rel].canonical(dotted)
        if canonical is None:
            return "unknown", dotted
        if canonical in self.functions:
            return "internal", canonical
        return "external", canonical

    def _enclosing_class(self, fn: FunctionInfo) -> str | None:
        """Qualname of the class whose method (transitively) contains ``fn``."""
        scope: FunctionInfo | None = fn
        while scope is not None:
            if scope.class_name is not None:
                prefix = scope.qualname.rsplit(".", 1)[0]
                return prefix
            scope = self.functions.get(scope.parent) if scope.parent else None
        return None


class ProjectRule(Rule):
    """Base class for rules that analyze the whole program at once.

    ``check(ctx)`` still runs per file (most project rules use it only to
    collect state); :meth:`check_project` runs once after every file has
    parsed, with the complete :class:`ProjectContext`.
    """

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        return iter(())
