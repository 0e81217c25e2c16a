#!/usr/bin/env bash
# Reach run: every entry point (CLI verbs, the task registry, the serving
# layer, the bench harness and perfbench) under the call-trace hook of
# sitecustomize.py, merged into WORKDIR/reached.tsv for check.py:
#
#     tools/reach/run.sh reach-work
#     python tools/reach/check.py reach-work/reached.tsv
#
# WORKDIR (default: a fresh temporary directory) must be new or empty.
# A few minutes on a 2-vCPU host.  A command that exits other than as
# documented stops the run with exit 1: the fault runs must exit 3, and
# the bench --check verdicts may be 0 or 1, because the hook slows every
# call several-fold.
set -euo pipefail

R=$(cd "$(dirname "$0")/../.." && pwd)
W=${1:-$(mktemp -d)}
mkdir -p "$W"
W=$(cd "$W" && pwd)
if [ -n "$(ls -A "$W")" ]; then
    echo "reach: $W is not empty" >&2
    exit 1
fi
cd "$R"
export REACH_OUT=$W/raw REACH_ROOT=$R/src/repro PYTHONPATH=$R/src:$R/tools/reach
export REPRO_CACHE_DIR=$W/cache

# expect CODES CMD...: run CMD, fail unless its exit status is one of CODES.
expect() {
    local codes=$1 status=0
    shift
    "$@" || status=$?
    case " $codes " in
        *" $status "*) ;;
        *) echo "reach: exit $status (expected $codes): $*" >&2; exit 1 ;;
    esac
}

expect 0 python -m repro generate --seed 7 --scale 0.12 --out "$W/trace"
expect 0 python -m repro study --trace "$W/trace" --markdown "$W/report.md"
expect 0 python -m repro experiments --scale 0.12 --jobs 2 --manifest "$W/m.json" \
    --export-dir "$W/export" --write-md "$W/EXPERIMENTS.md"
expect 0 python -m repro experiments --scale 0.12 --jobs 1
# The second fault run reaches RetryPolicy.backoff_for (--retries) and
# _schedule.<locals>.skip_pending (--fail-fast); it takes ~40 s.
REPRO_FAULT='fig5:raise,cache:corrupt' expect 3 python -m repro experiments \
    --scale 0.12 --jobs 2 --manifest "$W/fm.json"
REPRO_FAULT='fig5:raise:1,fig6:hang' expect 3 python -m repro experiments \
    --scale 0.12 --jobs 2 --retries 1 --task-timeout 20 --fail-fast --manifest "$W/fm2.json"
expect 0 python -m repro kb --trace "$W/trace" --out "$W/kb.json"
expect 0 python -m repro validate --trace "$W/trace"
expect 0 python -m repro optimize --trace "$W/trace"
expect 0 python -m repro summary --trace "$W/trace"
expect 0 python -m repro case-study
expect 0 python -m repro serve --trace "$W/trace" --speedup 0 --duration 5
# bench-scale gets an empty cache of its own: on a cache hit its generate
# phase, which forces a spill to shard files, would not run.
expect 0 python -m repro bench-scale --scale 0.12 --budget-gb 1.0 --cache-dir "$W/scale-cache" \
    --out "$W/bs.json"
expect "0 1" python -m repro bench-perf --scale 0.12 --repeats 1 --cache-dir "$W/cache" \
    --out "$W/bp.json" --check
expect "0 1" python -m repro bench-serve --scale 0.12 --cache-dir "$W/cache" \
    --out "$W/bsv.json" --check
for wl in generate analyze serve; do
    for t in 0 1; do
        expect 0 python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 3 --trace "$t"
    done
done

cat "$W"/raw/*.tsv | sed "s#^$R/##" | sort -u > "$W/reached.tsv"
echo "reach: wrote $W/reached.tsv"
