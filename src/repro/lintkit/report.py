"""Text and JSON renderings of a lint run.

The JSON document is the machine contract CI consumes (schema below);
the text form is for humans at a terminal.

JSON schema (``schema_version`` 2)::

    {
      "schema_version": 2,
      "files_checked": <int>,
      "findings": [ {code, message, path, line, col, snippet,
                     fix_hint}, ... ],                # sorted by location
      "counts": {"REP001": <int>, ...},               # surviving findings
      "suppressed": {"pragma": <int>},
      "exit_code": 0 | 1
    }
"""

from __future__ import annotations

import json

from repro.lintkit.framework import LintResult

REPORT_SCHEMA_VERSION = 2


def render_json(result: LintResult) -> str:
    """The machine-readable report (see module docstring for the schema)."""
    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "findings": [diag.to_dict() for diag in result.diagnostics],
        "counts": result.counts,
        "suppressed": {"pragma": result.suppressed_pragma},
        "exit_code": result.exit_code,
    }
    return json.dumps(document, indent=2) + "\n"


def render_text(result: LintResult) -> str:
    """Human-readable findings plus a one-line summary."""
    lines = [diag.render() for diag in result.diagnostics]
    summary = (
        f"{len(result.diagnostics)} finding(s) across "
        f"{result.files_checked} file(s)"
    )
    if result.suppressed_pragma:
        summary += f" ({result.suppressed_pragma} by pragma suppressed)"
    if result.counts:
        summary += "  [" + ", ".join(
            f"{code}: {n}" for code, n in result.counts.items()
        ) + "]"
    lines.append(summary)
    return "\n".join(lines)
