#!/usr/bin/env bash
# bench.sh — the perf-trajectory runner for the simulator's hot paths:
# the page-accounting fast paths (DESIGN.md §10), the event-queue
# (heap vs timer wheel) and serial-vs-sharded engine comparisons
# (DESIGN.md §11), since PR 8 the warm invocation path with
# observability off / bus on / per-invocation tracing on (DESIGN.md
# §13), and, since PR 9, the CI-shaped calibration pipeline
# (DESIGN.md §14) so the cost of the predictive-validation gate is on
# the record, and, since PR 10, the cluster subsystem's full protocol
# replay (DESIGN.md §15). Runs at fixed iteration counts (so runs are
# comparable across machines in shape, if not in absolute ns) and
# writes BENCH_PR10.json via cmd/benchjson, embedding the committed
# PR 9 results (BENCH_PR9.json) as the baseline so the speedup_x
# ratios land in the same file.
#
# Usage:
#   scripts/bench.sh            # full counts, writes BENCH_PR10.json
#   scripts/bench.sh smoke out.json   # reduced counts (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="${2:-BENCH_PR10.json}"

# Full runs repeat each bench (-count) and benchjson keeps the
# fastest repetition: interference on a shared machine is one-sided,
# so best-of-N is the stable estimate the speedup_x ratios need.
case "$MODE" in
  full)  HEAVY=5x;  MED=20x; LIGHT=300x; MICRO=2000x; COUNT=3 ;;
  smoke) HEAVY=1x;  MED=2x;  LIGHT=20x;  MICRO=100x;  COUNT=1 ;;
  *) echo "usage: scripts/bench.sh [full|smoke] [out.json]" >&2; exit 1 ;;
esac
# BENCH_COUNT overrides the repetition count, e.g. for an extra-long
# best-of capture on a noisy machine.
COUNT="${BENCH_COUNT:-$COUNT}"

TMP=".bench.$$.txt"
trap 'rm -f "$TMP"' EXIT
: > "$TMP"

run() { # run <package> <bench regexp> <benchtime>
  go test "$1" -run '^$' -count="$COUNT" -bench "$2" -benchtime "$3" | tee -a "$TMP"
}

run .                     'BenchmarkTable1WorkloadSuite$'            "$MED"
run .                     'BenchmarkTraceReplayPages$'               "$HEAVY"
run .                     'BenchmarkFig9TraceReplay$'                "$HEAVY"
run .                     'BenchmarkFacadeEndToEnd$'                 "$MED"
run .                     'BenchmarkG1Reclaim$'                      "$LIGHT"
run .                     'BenchmarkPyArenaReclaim$'                 "$LIGHT"
# The young collectors of the two generational models, measured after a
# warm-up: the bench-smoke CI job asserts both allocate nothing per op
# (objects recycle through mm.ObjectPool, work lists are reused).
run ./internal/hotspot    'BenchmarkYoungGCCopy$'                    "$LIGHT"
run ./internal/v8heap     'BenchmarkScavengeCopy$'                   "$LIGHT"
# The steady-state body of one HotSpot and one V8 function, dead-run
# coalescing included (DESIGN.md §10): the bench-smoke CI job asserts
# both allocate nothing per op.
run ./internal/workload   'BenchmarkRunBody$'                        "$LIGHT"
run ./internal/osmem      'BenchmarkTouchRuns$|BenchmarkReleaseRuns$' "$MICRO"
# PR 6: event-queue and parallel-engine comparisons. EngineHeap vs
# EngineWheel is the same churn program on both queue implementations;
# FleetReplayShards1 vs Shards8 is the same fleet replay serial and
# sharded (the ratio reflects the host's core count — on a single-core
# machine parity is the expected, and good, result).
run ./internal/sim         'BenchmarkEngineHeap$|BenchmarkEngineWheel$'                "$MED"
run ./internal/experiments 'BenchmarkFleetReplayShards1$|BenchmarkFleetReplayShards8$' "$HEAVY"
# PR 8: the warm invocation path under observability. bus=off is the
# zero-cost-when-disabled contract (also alloc-pinned by
# TestTracingWarmPathAllocFree); trace=on is the same cycle with the
# per-invocation span builder folding the stream, i.e. the full
# tracing-enabled overhead.
run ./internal/faas        'BenchmarkInvocationPath$'                                  "$LIGHT"
# The frozen-cache occupancy read on a 200-instance cache: the running
# USS ledger (DESIGN.md §10) keeps it O(1) and allocation-free, which
# the bench-smoke CI job asserts on this run's allocs_per_op.
run ./internal/faas        'BenchmarkCacheOccupancy$'                                  "$LIGHT"
# PR 9: the full quick calibration pipeline — fit on Table 1, predict
# Figs. 7/8/9, run the metamorphic suite — exactly what the CI
# validate job executes, so the gate's wall-clock cost is tracked.
run ./internal/calibrate   'BenchmarkCalibrateQuick$'                                  "$HEAVY"
# PR 10: the cluster subsystem end to end — garbage-aware placement,
# pressure reports and migration over a 16-node fleet — so the cost of
# the fleet protocol (vs the bare sharded replay above) is tracked.
run ./internal/cluster     'BenchmarkClusterReplay$'                                    "$HEAVY"

go run ./cmd/benchjson -label "$MODE" \
  -baseline BENCH_PR9.json -o "$OUT" < "$TMP"
echo "wrote $OUT"
