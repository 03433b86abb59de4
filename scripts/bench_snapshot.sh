#!/usr/bin/env bash
# Record one point on the cross-PR perf trajectory.
#
# Runs the pinned smoke suite (bench_tab01_speedups, bench_abl_batch,
# bench_abl_sharding, bench_abl_concurrent, bench_abl_snapshot) at
# QMAX_SNAPSHOT_SCALE, collects each binary's QMAX_METRICS_OUT blob, and
# stitches them into BENCH_<n>.json at the repo root via
# scripts/bench_snapshot.py (n = 1 + the highest existing snapshot).
#
# Usage:
#   scripts/bench_snapshot.sh [build-dir] [instrumented-build-dir]
#
# build-dir               default build — throughput numbers
# instrumented-build-dir  optional      — a tree configured with
#                  -DQMAX_TELEMETRY=ON; when given, bench_abl_sharding
#                  runs again from it to capture per-stage latency
#                  histograms and a Chrome trace (flight recorder).
#                  Throughput is never taken from the instrumented build.
#
# Environment:
#   QMAX_SNAPSHOT_SCALE    stream-scale for the suite   (default 0.05)
#   QMAX_SNAPSHOT_REPS     repetitions per table point  (default 2)
#   QMAX_SNAPSHOT_WORKDIR  where raw blobs land (default
#                          bench_results/snapshot; kept for CI artifacts)
#   QMAX_SNAPSHOT_OUT      override the output path (default
#                          BENCH_<n>.json at the repo root)
#
# Compare two snapshots with scripts/bench_compare.py.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"

BUILD_DIR="${1:-build}"
INSTRUMENTED_DIR="${2:-}"
WORK="${QMAX_SNAPSHOT_WORKDIR:-bench_results/snapshot}"
mkdir -p "$WORK"

export QMAX_BENCH_SCALE="${QMAX_SNAPSHOT_SCALE:-0.05}"
export QMAX_BENCH_REPS="${QMAX_SNAPSHOT_REPS:-2}"
unset QMAX_BENCH_LARGE QMAX_TRACE_OUT 2>/dev/null || true

for bin in bench_tab01_speedups bench_abl_batch bench_abl_sharding \
           bench_abl_concurrent bench_abl_snapshot; do
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "error: $BUILD_DIR/bench/$bin not found (build the benches first)" >&2
    exit 2
  fi
done

echo "== snapshot suite (scale=$QMAX_BENCH_SCALE, reps=$QMAX_BENCH_REPS) =="

QMAX_METRICS_OUT="$WORK/tab01.json" \
  "$BUILD_DIR/bench/bench_tab01_speedups" | tee "$WORK/tab01.txt"
QMAX_METRICS_OUT="$WORK/abl_batch.json" \
  "$BUILD_DIR/bench/bench_abl_batch" | tee "$WORK/abl_batch.txt"
QMAX_METRICS_OUT="$WORK/abl_sharding.json" \
  "$BUILD_DIR/bench/bench_abl_sharding" | tee "$WORK/abl_sharding.txt"
QMAX_METRICS_OUT="$WORK/abl_concurrent.json" \
  "$BUILD_DIR/bench/bench_abl_concurrent" | tee "$WORK/abl_concurrent.txt"
QMAX_METRICS_OUT="$WORK/abl_snapshot.json" \
  "$BUILD_DIR/bench/bench_abl_snapshot" | tee "$WORK/abl_snapshot.txt"

# Optional instrumented leg: stage latencies + Chrome trace, throughput
# ignored.
if [ -n "$INSTRUMENTED_DIR" ]; then
  if [ ! -x "$INSTRUMENTED_DIR/bench/bench_abl_sharding" ]; then
    echo "error: $INSTRUMENTED_DIR/bench/bench_abl_sharding not found" >&2
    exit 2
  fi
  echo "== instrumented leg ($INSTRUMENTED_DIR) =="
  QMAX_METRICS_OUT="$WORK/trace_metrics.json" \
  QMAX_TRACE_OUT="$WORK/trace.json" \
    "$INSTRUMENTED_DIR/bench/bench_abl_sharding" > "$WORK/trace_leg.txt"
  echo "flight-recorder trace: $WORK/trace.json (load in ui.perfetto.dev)"
fi

# Provenance for bench_compare.py's cross-host detection.
COMMIT="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cat > "$WORK/config.json" <<EOF
{
  "scale": $QMAX_BENCH_SCALE,
  "reps": $QMAX_BENCH_REPS,
  "hostname": "$(hostname)",
  "commit": "$COMMIT",
  "generated_at": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF

if [ -n "${QMAX_SNAPSHOT_OUT:-}" ]; then
  python3 scripts/bench_snapshot.py "$WORK" --out "$QMAX_SNAPSHOT_OUT"
else
  python3 scripts/bench_snapshot.py "$WORK"
fi
