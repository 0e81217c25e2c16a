"""Benchmark of the reproduction's user-facing paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

The benchmark imports the program from ``src/`` of the same checkout, makes
its inputs from ``--seed``, sets the workload up several times (reporting
the median as ``setup_s``), measures for ``--seconds`` seconds, checks the
program's outputs and prints one JSON object as the last line of standard
output.  End-to-end times are scaled to reference machine speed
(``speed.py``)::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` installs per-layer probes (see ``probes.py``) and reports the
per-layer metrics instead.  The workloads are described in ``README.md``.

Exit status is 0 when a result was printed, nonzero (with no result) when
the program cannot be imported or a workload cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for inputs written to disk; removed when the run ends.
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up is repeated this many times per run and the median reported, so
#: one slow first touch (imports, page faults) does not decide ``setup_s``.
SETUP_REPEATS = 3


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    Refuses to fall back to any other installed copy: a benchmark run that
    measured a different program than the checkout's would be meaningless.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed on stdout."""
    import probes
    import speed
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {name!r} "
            f"(known: {', '.join(sorted(workloads.WORKLOADS))})"
        )
    workdir = WORK_ROOT / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed=seed, workdir=workdir)
    try:
        workload.prepare()
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            before = speed.sample()
            t0 = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - t0
            setup_s.append(elapsed * speed.scale(before, speed.sample()))
        probe_set = probes.install(workload) if trace else None
        try:
            outcome = workload.measure(seconds)
        finally:
            if probe_set is not None:
                probe_set.uninstall()
        correct = workload.check(outcome)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's workdir is still there

    if trace:
        metrics = probe_set.metrics(outcome)
    else:
        metrics = {
            "latency_ms": {
                "value": statistics.median(outcome.latencies_s) * 1000.0,
                "unit": "ms",
            },
            "throughput_per_s": {
                "value": outcome.items / outcome.busy_s,
                "unit": "1/s",
            },
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    return {
        "correct": bool(correct and outcome.failed == 0),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
