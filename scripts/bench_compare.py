#!/usr/bin/env python3
"""Compare two BENCH_<n>.json perf snapshots and flag regressions.

Usage:
    bench_compare.py OLD NEW [--threshold 0.10] [--cross-host]

Throughput metrics are higher-is-better. A metric that drops by more
than --threshold (default 10%) is a regression:

  * ratio metrics (speedups, gains, X-vs-baseline) are STRICT — they
    compare two algorithms on the same machine in the same run, so they
    are meaningful across hosts; a strict regression exits 1.
  * absolute rates (anything named *mpps*) are strict only when both
    snapshots come from the same host at the same scale; across hosts
    (--cross-host, or a hostname/scale mismatch in the configs) they
    downgrade to warnings — CI runners are not comparable to the
    machine that recorded the committed baseline.

A scale mismatch between the snapshots' configs downgrades EVERYTHING
to warnings: a different QMAX_BENCH_SCALE changes the stream-length-vs-q
regime, so neither rates nor ratios are comparable.

Stage latencies (p99, lower-is-better) are always warn-only: smoke-run
tail latencies are too noisy to gate on.

Exit status: 1 if any strict regression, else 0. Stdlib only.
"""
import argparse
import json
import re
import sys


def is_absolute_rate(key):
    return "mpps" in key.lower()


# Absolute floors on same-run ratios in the NEW snapshot, independent of
# the baseline: batched ingestion must never lose to the scalar path on
# the headline table, even in the degenerate small-stream/large-q regime
# where admissions dominate (a 3% tolerance absorbs quiet-host run
# noise). Strict when the snapshot was recorded like the baseline
# (same host, same scale) — i.e. when re-baselining — and warn-only on
# shared CI runners, whose single-rep timings swing well past 3%.
RATIO_FLOORS = [
    (re.compile(r"^tab01:.*:batch_gain$"), 0.97),
]


def check_ratio_floors(new):
    failures = []
    for key, value in sorted(new.get("throughput", {}).items()):
        for pattern, floor in RATIO_FLOORS:
            if pattern.search(key) and value < floor:
                failures.append(f"{key}: {fmt(value)} < floor {floor}")
    return failures


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="fractional drop that counts as a regression "
                         "(default 0.10)")
    ap.add_argument("--cross-host", action="store_true",
                    help="treat absolute-rate drops as warnings, not "
                         "failures")
    args = ap.parse_args()

    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    old_cfg, new_cfg = old.get("config", {}), new.get("config", {})
    cross_host = args.cross_host
    if old_cfg.get("hostname") != new_cfg.get("hostname"):
        if not cross_host:
            print(f"note: hostname differs ({old_cfg.get('hostname')} vs "
                  f"{new_cfg.get('hostname')}); absolute rates downgraded "
                  "to warnings")
        cross_host = True
    # A scale mismatch changes the measurement regime itself (stream
    # length vs q), so NOTHING is comparable — even ratios legitimately
    # move. Downgrade everything and say so.
    all_warn = old_cfg.get("scale") != new_cfg.get("scale")
    if all_warn:
        print(f"note: scale differs ({old_cfg.get('scale')} vs "
              f"{new_cfg.get('scale')}); all checks downgraded to warnings")

    regressions, warnings, improvements = [], [], []
    shared = 0
    for key, old_v in sorted(old.get("throughput", {}).items()):
        new_v = new.get("throughput", {}).get(key)
        if new_v is None or not old_v:
            continue
        shared += 1
        ratio = new_v / old_v
        line = f"{key}: {fmt(old_v)} -> {fmt(new_v)} ({ratio - 1.0:+.1%})"
        if ratio < 1.0 - args.threshold:
            if all_warn or (cross_host and is_absolute_rate(key)):
                warnings.append(line)
            else:
                regressions.append(line)
        elif ratio > 1.0 + args.threshold:
            improvements.append(line)

    lat_warnings = []
    old_lat = old.get("stage_latency_ns", {})
    for stage, new_h in sorted(new.get("stage_latency_ns", {}).items()):
        old_h = old_lat.get(stage)
        if not old_h or not old_h.get("p99"):
            continue
        ratio = new_h.get("p99", 0) / old_h["p99"]
        if ratio > 1.0 + args.threshold:
            lat_warnings.append(
                f"stage {stage} p99: {old_h['p99']}ns -> "
                f"{new_h['p99']}ns (x{ratio:.2f})")

    print(f"compared {shared} shared throughput metrics "
          f"(threshold {args.threshold:.0%}"
          f"{', cross-host' if cross_host else ''})")
    for line in improvements:
        print(f"  improved:   {line}")
    for line in warnings:
        print(f"  WARN:       {line}")
    for line in lat_warnings:
        print(f"  WARN (lat): {line}")
    for line in regressions:
        print(f"  REGRESSION: {line}")

    floor_failures = check_ratio_floors(new)
    floors_strict = not (cross_host or all_warn)
    for line in floor_failures:
        print(f"  {'FLOOR' if floors_strict else 'WARN (floor)'}: {line}")

    if shared == 0:
        print("error: snapshots share no throughput metrics", file=sys.stderr)
        return 1
    if regressions:
        print(f"{len(regressions)} strict regression(s) beyond "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    if floor_failures and floors_strict:
        print(f"{len(floor_failures)} ratio-floor violation(s)",
              file=sys.stderr)
        return 1
    print("ok: no strict regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
