"""Command-line interface.

Subcommands::

    repro-cloud generate    --seed 7 --scale 0.3 --out trace_dir
    repro-cloud study       [--trace trace_dir | --seed 7 --scale 0.3]
                            [--markdown report.md]
    repro-cloud validate    [--trace trace_dir | --seed 7 --scale 0.3]
    repro-cloud summary     [--trace trace_dir | --seed 7 --scale 0.3]
    repro-cloud experiments [--jobs 4] [--manifest [PATH]] [--cache-dir DIR]
                            [--write-md EXPERIMENTS.md] [--seed 7 --scale 0.3]
                            [--retries N] [--task-timeout S] [--fail-fast]
                            [--profile [PATH]]
                            (alias: repro-cloud run ...)
    repro-cloud kb          [--trace trace_dir] [--out kb.json]
    repro-cloud case-study  [--seed 11]
    repro-cloud bench-scale --cache-dir DIR [--scale 50] [--budget-gb 4]
                            [--tasks fig6 fig7a ...] [--out BENCH_scale.json]
    repro-cloud bench-perf  --cache-dir DIR [--scale 0.12] [--repeats 3]
                            [--check] [--baseline BENCH_perf.json]
                            [--write-baseline] [--tasks fig6 ...]
                            [--out BENCH_perf.candidate.json]
    repro-cloud serve       [--seed 7 --scale 0.12] [--host 127.0.0.1 --port 0]
                            [--speedup 60] [--no-replay] [--duration S]
    repro-cloud bench-serve --cache-dir DIR [--scale 0.12] [--clients 4]
                            [--requests-per-client 400] [--check]
                            [--baseline BENCH_serve.json] [--write-baseline]
                            [--out BENCH_serve.candidate.json]

(Also runnable as ``python -m repro ...``.)

``experiments`` runs every task attempt in-process at ``--jobs 1`` and in
its own worker process otherwise, or whenever ``--task-timeout`` or an
armed hang/kill fault needs a process boundary to stop it; either way one
scheduler applies the retry policy that ``--retries``, ``--task-timeout``
and ``--fail-fast`` build (backoff is fixed: 0.1 s, doubling, capped at
30 s).

``study`` and ``validate`` re-read checks the experiment registry already
runs (:mod:`repro.experiments.claims`): ``study`` exits nonzero when any
of the paper's four insight groups fails, ``validate`` when any of the
calibration anchors does.

``experiments`` exits 0 when every task completed and passed, 1 when any
completed experiment failed its shape checks, and 3 when the run is
*degraded*: every completed experiment passed but some task failed, timed
out, or was skipped (see docs/PIPELINE.md), so CI can gate directly on the
command.

The three ``bench-*`` verbs share one handler over :mod:`repro.bench`:
each exits 1 when the run itself failed (a task not ok, a query error,
kernel output drift, a phase over budget) or, with ``--check``, when the
calibrated comparison against the committed baseline regresses.  Their
tolerances are constants in ``repro.bench.GATES``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--scale", type=float, default=0.3, help="workload scale (1.0 = full sizing)"
    )
    parser.add_argument(
        "--trace", type=str, default=None, help="load a saved trace directory instead"
    )


def _load_or_generate(args: argparse.Namespace):
    from repro.obs import span
    from repro.telemetry.io import load_trace
    from repro.workloads.generator import GeneratorConfig, generate_trace_pair

    if args.trace:
        return load_trace(args.trace)
    # The CLI reads the elapsed wall time off the obs span record instead
    # of touching the clock itself.
    with span("cli.generate_trace", seed=args.seed, scale=args.scale) as timing:
        store = generate_trace_pair(GeneratorConfig(seed=args.seed, scale=args.scale))
    print(
        f"generated {len(store)} VMs "
        f"({store.summary()['utilization_series']} with telemetry) "
        f"in {timing.wall_s:.1f}s",
        file=sys.stderr,
    )
    return store


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.telemetry.io import save_trace

    store = _load_or_generate(args)
    try:
        path = save_trace(store, args.out)
    except FileExistsError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"trace written to {path}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.experiments.claims import run_study

    store = _load_or_generate(args)
    report = run_study(store)
    print(report.render())
    if args.markdown:
        out = Path(args.markdown)
        out.write_text(report.markdown(store))
        print(f"markdown report written to {out}")
    return 0 if report.passed else 1


def _manifest_path(args: argparse.Namespace) -> Path | None:
    """Resolve --manifest: explicit path, or manifest.json next to EXPERIMENTS.md."""
    if args.manifest is None:
        return None
    if args.manifest is not True:
        return Path(args.manifest)
    base = Path(args.write_md).parent if args.write_md else Path(".")
    return base / "manifest.json"


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import RetryPolicy
    from repro.experiments.runner import (
        EXIT_CHECK_FAILURES,
        EXIT_DEGRADED,
        exit_code_for_manifest,
        render_report,
        run_pipeline,
        write_experiments_md,
        write_manifest,
    )
    from repro.obs import maybe_profile
    from repro.workloads.generator import GeneratorConfig

    config = GeneratorConfig(seed=args.seed, scale=args.scale)
    policy = RetryPolicy(
        retries=args.retries,
        task_timeout_s=args.task_timeout,
        fail_fast=args.fail_fast,
    )
    with maybe_profile(args.profile):
        report = run_pipeline(
            config,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            policy=policy,
        )
    if args.profile:
        print(
            f"profile written to {args.profile} "
            "(inspect with: python -m pstats ...)",
            file=sys.stderr,
        )
    results = report.results
    print(render_report(results))
    trace = report.trace_info
    totals = report.manifest["totals"]
    print(
        f"trace cache {'hit' if trace.hit else 'miss'} ({trace.path}); "
        f"{totals['experiments']} experiments in {totals['wall_time_s']:.1f}s "
        f"with --jobs {args.jobs}",
        file=sys.stderr,
    )
    if args.write_md:
        out = write_experiments_md(results, args.write_md, config=config)
        print(f"wrote {out}")
    manifest_path = _manifest_path(args)
    if manifest_path:
        write_manifest(report.manifest, manifest_path)
        print(f"wrote {manifest_path}")
    if args.export_dir:
        from repro.experiments.export import export_results

        written = export_results(results, args.export_dir)
        n_files = sum(len(paths) for paths in written.values())
        print(f"exported {n_files} CSV files to {args.export_dir}")
    # The manifest is the gate: CI consumes this exit code (0 = all ok,
    # 3 = degraded but complete, 1 = shape-check failures) and the
    # manifest rows instead of re-parsing the console report.
    code = exit_code_for_manifest(report.manifest)
    if code == EXIT_CHECK_FAILURES:
        print(
            f"{totals['failed']}/{totals['experiments']} experiments failed "
            "their shape checks",
            file=sys.stderr,
        )
    elif code == EXIT_DEGRADED:
        degraded_rows = [
            row for row in report.manifest["experiments"]
            if row["status"] not in ("ok", "retried")
        ]
        for row in degraded_rows:
            print(
                f"task {row['id']}: {row['status']} after {row['attempts']} "
                f"attempt(s): {row.get('error', '')}",
                file=sys.stderr,
            )
        print(
            f"pipeline degraded: {len(degraded_rows)}/{totals['experiments']} "
            "task(s) did not complete (exit 3)",
            file=sys.stderr,
        )
    return code


def _cmd_kb(args: argparse.Namespace) -> int:
    from repro.core.knowledge_base import WorkloadKnowledgeBase
    from repro.telemetry.schema import Cloud

    store = _load_or_generate(args)
    kb = WorkloadKnowledgeBase.from_trace(store)
    for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
        summary = kb.cloud_summary(cloud)
        print(f"{cloud}:")
        for key, value in summary.items():
            print(f"  {key}: {value:.2f}")
    sample = kb.subscriptions()[: args.sample]
    print(f"\npolicy recommendations (first {len(sample)} subscriptions):")
    for record in sample:
        policies = kb.recommend_policies(record.subscription_id)
        print(
            f"  sub {record.subscription_id} ({record.cloud}/{record.service}): "
            f"{', '.join(policies) if policies else '(none)'}"
        )
    if args.out:
        kb.to_json(args.out)
        print(f"\nknowledge base written to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.claims import validate_trace

    store = _load_or_generate(args)
    report = validate_trace(store)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.management.orchestrator import WorkloadAwareOrchestrator

    store = _load_or_generate(args)
    report = WorkloadAwareOrchestrator(store).run()
    print(report.render())
    return 0 if report.outcomes else 1


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.analysis.render import cdf_strip
    from repro.core import deployment as dep
    from repro.experiments.claims import pattern_mix_table, shape_lines
    from repro.experiments.parallel import TASKS
    from repro.telemetry.schema import Cloud

    store = _load_or_generate(args)
    print(f"trace: {store.summary()}\n")
    print("\n".join(shape_lines(store)))
    for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
        if store.vms(cloud=cloud):
            xs, ps = dep.lifetime_cdf(store, cloud).points()
            print(f"{cloud} lifetime seconds  {cdf_strip(xs, ps)}")
    if store.vm_ids_with_utilization():
        print("\nutilization pattern mix")
        print(pattern_mix_table(TASKS["fig5"].runner(store)))
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    from repro.experiments import case_study

    result = case_study.run(seed=args.seed)
    print(result.render())
    return 0 if result.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    run = getattr(bench, f"run_bench_{args.bench}")
    payload = run(
        seed=args.seed,
        scale=args.scale,
        cache_dir=args.cache_dir,
        **{name: getattr(args, name) for name in args.bench_params},
    )
    bad = bench.problems(payload)
    if getattr(args, "write_baseline", False):
        if bad:
            print(bench.render(payload))
            print(
                f"FAIL: refusing to write a bad run to {args.baseline}",
                file=sys.stderr,
            )
            return 1
        out = bench.write_artifact(payload, args.baseline)
        print(f"baseline written to {out}")
        return 0
    out = bench.write_artifact(payload, args.out)
    print(f"wrote {out}")
    if bad or not getattr(args, "check", False):
        print(bench.render(payload))
        return 1 if bad else 0
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(
            f"FAIL: no baseline at {baseline_path} (run with --write-baseline "
            "to create one)",
            file=sys.stderr,
        )
        return 1
    result = bench.compare(payload, bench.load_artifact(baseline_path, args.bench))
    print(bench.render(payload, result))
    return 0 if result["ok"] else 1


def _add_bench_parser(sub, name: str, help_text: str, *, gated: bool, params) -> None:
    """One ``bench-<name>`` verb: the flags every bench shares, then its own.

    ``params`` are ``(flag, add_argument kwargs)`` pairs whose destinations
    are passed to ``repro.bench.run_bench_<name>`` as keyword arguments.
    """
    from repro.bench import DEFAULT_SCALE

    parser = sub.add_parser(f"bench-{name}", help=help_text)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE[name],
        help=f"workload scale (default {DEFAULT_SCALE[name]:g})",
    )
    parser.add_argument(
        "--cache-dir", type=str, required=True,
        help="trace cache root (a warm-up pass populates it, so measured "
        "passes never pay generation costs)",
    )
    out = f"BENCH_{name}.candidate.json" if gated else f"BENCH_{name}.json"
    parser.add_argument(
        "--out", type=str, default=out, help=f"artifact path (default: {out})"
    )
    if gated:
        parser.add_argument(
            "--baseline", type=str, default=f"BENCH_{name}.json",
            help=f"committed baseline path (default: BENCH_{name}.json)",
        )
        parser.add_argument(
            "--check", action="store_true",
            help="compare against the baseline and exit 1 on regression",
        )
        parser.add_argument(
            "--write-baseline", action="store_true",
            help="write the measurement to --baseline instead of comparing; "
            "refused (exit 1) when the run itself failed",
        )
    dests = []
    for flag, kwargs in params:
        dests.append(parser.add_argument(flag, **kwargs).dest)
    parser.set_defaults(func=_cmd_bench, bench=name, bench_params=dests)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib

    from repro.serving.replay import replay_trace
    from repro.serving.service import KnowledgeBaseService

    store = _load_or_generate(args)

    async def _run() -> None:
        service = KnowledgeBaseService.for_trace(
            store, queue_maxsize=args.queue_maxsize
        )
        host, port = await service.start(host=args.host, port=args.port)
        # The chosen port is the contract: with the default --port 0 the
        # kernel picks a free one, and clients read it from this line.
        print(f"serving workload knowledge base on {host}:{port}", file=sys.stderr)
        replay_task = None
        if not args.no_replay:
            replay_task = asyncio.create_task(
                replay_trace(store, service, speedup=args.speedup)
            )
            print(
                f"replaying {len(store)} VMs at {args.speedup:g}x "
                "(0 = as fast as ingest accepts)",
                file=sys.stderr,
            )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # serve until interrupted
        finally:
            if replay_task is not None:
                replay_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await replay_task
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cloud",
        description="Reproduction of 'How Different are the Cloud Workloads?' (DSN'23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate and save a trace pair")
    _add_trace_args(p_gen)
    p_gen.add_argument("--out", type=str, required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_generate)

    p_study = sub.add_parser("study", help="run the full characterization study")
    _add_trace_args(p_study)
    p_study.add_argument(
        "--markdown", type=str, default=None,
        help="also write a shareable markdown report here",
    )
    p_study.set_defaults(func=_cmd_study)

    p_exp = sub.add_parser(
        "experiments", aliases=["run"], help="reproduce every figure/table"
    )
    p_exp.add_argument("--seed", type=int, default=7)
    p_exp.add_argument("--scale", type=float, default=0.3)
    p_exp.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment pipeline (1 = serial; "
        "results are identical at any job count)",
    )
    p_exp.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts for a task whose worker fails, hangs, or dies "
        "(default 0: fail after the first attempt)",
    )
    p_exp.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline; a hung worker is killed and "
        "the task retried/marked 'timeout' (forces process isolation even "
        "at --jobs 1)",
    )
    p_exp.add_argument(
        "--fail-fast", action="store_true",
        help="skip not-yet-started tasks once any task exhausts its attempts",
    )
    p_exp.add_argument(
        "--manifest", nargs="?", const=True, default=None, metavar="PATH",
        help="write the machine-readable run manifest (default path: "
        "manifest.json next to EXPERIMENTS.md)",
    )
    p_exp.add_argument(
        "--cache-dir", type=str, default=None,
        help="trace cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p_exp.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk trace cache (always re-synthesize)",
    )
    p_exp.add_argument(
        "--write-md", type=str, default=None, help="regenerate EXPERIMENTS.md here"
    )
    p_exp.add_argument(
        "--export-dir", type=str, default=None,
        help="export the numeric series behind every figure as CSV files",
    )
    p_exp.add_argument(
        "--profile", type=str, nargs="?", const="profile.pstats", default=None,
        metavar="PATH",
        help="profile the run with cProfile and write a .pstats artifact "
        "(default path: profile.pstats)",
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_kb = sub.add_parser("kb", help="build the workload knowledge base")
    _add_trace_args(p_kb)
    p_kb.add_argument("--out", type=str, default=None, help="write kb JSON here")
    p_kb.add_argument("--sample", type=int, default=8, help="recommendations to print")
    p_kb.set_defaults(func=_cmd_kb)

    p_val = sub.add_parser(
        "validate", help="check a trace against the paper's calibration anchors"
    )
    _add_trace_args(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_opt = sub.add_parser(
        "optimize", help="size every workload-aware optimization policy"
    )
    _add_trace_args(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_summary = sub.add_parser("summary", help="terminal summary with sparklines")
    _add_trace_args(p_summary)
    p_summary.set_defaults(func=_cmd_summary)

    p_case = sub.add_parser("case-study", help="run the Canada region-shift pilot")
    p_case.add_argument("--seed", type=int, default=11)
    p_case.set_defaults(func=_cmd_case_study)

    _add_bench_parser(
        sub, "scale",
        "paper-scale memory benchmark: generate + analyze under an RSS "
        "budget, writing BENCH_scale.json",
        gated=False,
        params=[
            ("--budget-gb", dict(
                type=float, default=4.0,
                help="hard per-phase peak-RSS budget in GiB (default 4)",
            )),
            (
            "--tasks",
            dict(type=str, nargs="*", default=None, dest="task_ids",
                 help="only these registry task ids (default: all 19)"),
        ),
        ],
    )
    _add_bench_parser(
        sub, "perf",
        "per-task wall-time benchmark: run the experiment registry at "
        "fixed scale and compare against the committed BENCH_perf.json",
        gated=True,
        params=[
            ("--repeats", dict(
                type=int, default=3,
                help="measured repeats per task after one discarded warm-up "
                "(default 3; the artifact records the median)",
            )),
            (
            "--tasks",
            dict(type=str, nargs="*", default=None, dest="task_ids",
                 help="only these registry task ids (default: all 19)"),
        ),
        ],
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the online knowledge-base service over TCP, replaying the "
        "trace's event stream as a timed arrival process",
    )
    _add_trace_args(p_serve)
    p_serve.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: let the kernel choose; the chosen port "
        "is printed on stderr)",
    )
    p_serve.add_argument(
        "--speedup", type=float, default=60.0,
        help="replay speedup over trace time (default 60; 0 replays as fast "
        "as the ingest queue accepts)",
    )
    p_serve.add_argument(
        "--no-replay", action="store_true",
        help="serve topology only and rely on TCP 'ingest' requests for data",
    )
    p_serve.add_argument(
        "--duration", type=float, default=None,
        help="exit cleanly after this many wall seconds (default: serve "
        "until interrupted)",
    )
    p_serve.add_argument(
        "--queue-maxsize", type=int, default=64,
        help="ingest queue depth before producers block (default 64)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    _add_bench_parser(
        sub, "serve",
        "serving benchmark: replay a trace into the live service while "
        "concurrent clients query it; measure sustained QPS and p99 latency "
        "and compare against the committed BENCH_serve.json",
        gated=True,
        params=[
            ("--clients", dict(
                type=int, default=4,
                help="concurrent query clients (default 4; part of the "
                "baseline key)",
            )),
            ("--requests-per-client", dict(
                type=int, default=400,
                help="requests each client issues (default 400; baseline key)",
            )),
        ],
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
