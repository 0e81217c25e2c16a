"""Command-line front end for the determinism & invariant linter.

Reached two ways with identical flags::

    python -m repro lint [paths...] [--format text|json] [--output PATH]
                         [--select CODES] [--ignore CODES] [--list-rules]
    python -m repro.lintkit ...        # standalone, same interface

With no paths, ``src/repro`` (then ``src``, then ``.``) is linted.  Every
finding not suppressed by a ``# lint: allow[...]`` pragma fails the run.
Exit codes: 0 clean, 1 findings (or parse errors), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lintkit.framework import lint_paths
from repro.lintkit.report import render_json, render_text
from repro.lintkit.rules import RULE_INDEX, default_rules


def rule_codes() -> str:
    """The shipped rule codes for help text, e.g. ``REP001, REP002, ...``."""
    return ", ".join(RULE_INDEX)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint flags (shared by ``repro lint`` and the standalone CLI)."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", type=str, default=None, metavar="PATH",
        help="also write the report in the chosen format to PATH "
        "(stdout then shows the text summary)",
    )
    parser.add_argument(
        "--select", type=str, default=None, metavar="CODES",
        help="comma-separated rule codes to run (e.g. REP001,REP004)",
    )
    parser.add_argument(
        "--ignore", type=str, default=None, metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _default_paths() -> list[str]:
    for candidate in ("src/repro", "src"):
        if Path(candidate).is_dir():
            return [candidate]
    return ["."]


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _print_rules() -> None:
    for rule in default_rules():
        print(f"{rule.code}  {rule.name}")
        print(f"    {rule.description}")


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    try:
        result = lint_paths(
            args.paths or _default_paths(),
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = render_json(result) if args.format == "json" else render_text(result) + "\n"
    if args.output:
        Path(args.output).write_text(report)
        print(render_text(result))
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(report)
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lintkit``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=f"Determinism & invariant linter ({rule_codes()}) "
        "for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
