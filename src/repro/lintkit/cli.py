"""Command-line front end for the determinism & invariant linter.

Reached two ways with identical flags::

    python -m repro lint [paths...] [--format text|json] [--baseline PATH]
                         [--select CODES] [--ignore CODES] [--output PATH]
                         [--write-baseline [PATH]] [--no-baseline]
                         [--changed [REF]] [--jobs N] [--list-rules]
    python -m repro.lintkit ...        # standalone, same interface

With no paths, ``src/repro`` (then ``src``, then ``.``) is linted.  A
``lintkit-baseline.json`` in the current directory is applied
automatically; ``--no-baseline`` disables it and ``--baseline PATH``
points elsewhere.  ``--changed [REF]`` lints only the Python files
touched since a git ref (default ``HEAD``), plus untracked ones -- the
sub-second pre-commit mode.  ``--jobs N`` parses files in N processes;
diagnostics are identical regardless.  Exit codes: 0 clean, 1 findings
(or parse errors), 2 usage errors.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.lintkit.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lintkit.framework import lint_paths
from repro.lintkit.report import render_json, render_text
from repro.lintkit.rules import default_rules


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
        "--baseline", type=str, default=None, metavar="PATH",
        help=f"baseline file of grandfathered findings (default: "
        f"./{DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    parser.add_argument(
        "--write-baseline", nargs="?", const=True, default=None, metavar="PATH",
        help="record the current findings as the new baseline and exit 0 "
        f"(default path: ./{DEFAULT_BASELINE_NAME})",
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
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint only Python files changed since REF (default HEAD) "
        "plus untracked ones; mutually exclusive with explicit paths",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse files in N worker processes (default 1); "
        "results are identical to a serial run",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _changed_python_files(ref: str) -> list[str]:
    """Python files touched relative to ``ref``, plus untracked ones.

    Raises ``subprocess.CalledProcessError`` when git is unavailable or
    the ref does not resolve; paths are repo-root-relative as git prints
    them, deduplicated, sorted, and filtered to files that still exist
    (a deleted file has nothing left to lint).
    """
    commands = (
        ["git", "diff", "--name-only", "-z", ref, "--", "*.py"],
        ["git", "ls-files", "--others", "--exclude-standard", "-z", "--", "*.py"],
    )
    seen: set[str] = set()
    for command in commands:
        out = subprocess.run(
            command, check=True, capture_output=True, text=True
        ).stdout
        seen.update(name for name in out.split("\0") if name)
    return sorted(name for name in seen if Path(name).is_file())


def _default_paths() -> list[str]:
    for candidate in ("src/repro", "src"):
        if Path(candidate).is_dir():
            return [candidate]
    return ["."]


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _resolve_baseline_path(args: argparse.Namespace) -> Path | None:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    return default if default.is_file() else None


def _print_rules() -> None:
    for rule in default_rules():
        print(f"{rule.code}  {rule.name}")
        print(f"    {rule.description}")


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    changed = getattr(args, "changed", None)
    if changed is not None:
        if args.paths:
            print(
                "error: --changed and explicit paths are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        try:
            paths = _changed_python_files(changed)
        except (subprocess.CalledProcessError, FileNotFoundError) as exc:
            detail = getattr(exc, "stderr", "") or str(exc)
            print(f"error: --changed {changed}: {detail.strip()}", file=sys.stderr)
            return 2
        if not paths:
            print(f"no Python files changed since {changed}; nothing to lint")
            return 0
    else:
        paths = args.paths or _default_paths()
    try:
        result = lint_paths(
            paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            jobs=max(1, getattr(args, "jobs", 1) or 1),
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        target = (
            Path(DEFAULT_BASELINE_NAME)
            if args.write_baseline is True
            else Path(args.write_baseline)
        )
        write_baseline(result.diagnostics, target)
        print(
            f"baseline with {len(result.diagnostics)} finding(s) "
            f"written to {target}"
        )
        return 0

    baseline_path = _resolve_baseline_path(args)
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result.diagnostics, result.suppressed_baseline = apply_baseline(
            result.diagnostics, baseline
        )

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
        description="Determinism & invariant linter (REP001, REP002, REP004-REP010) "
        "for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
