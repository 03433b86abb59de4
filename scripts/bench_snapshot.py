#!/usr/bin/env python3
"""Stitch the raw blobs from scripts/bench_snapshot.sh into one
BENCH_<n>.json perf snapshot at the repo root.

Usage:
    bench_snapshot.py WORKDIR [--out PATH]

WORKDIR holds the per-bench QMAX_METRICS_OUT blobs (tab01.json,
abl_batch.json, abl_sharding.json; optionally trace_metrics.json from a
-DQMAX_TELEMETRY=ON build) plus config.json provenance. Without --out, the
snapshot number is 1 + the highest existing BENCH_<n>.json at the root.

Snapshot schema ("qmax-bench-snapshot/1"):
    {
      "schema": "qmax-bench-snapshot/1",
      "snapshot": <n>,
      "config": {scale, reps, hostname, commit, generated_at},
      "throughput": {"<bench>:<case>:<metric>": <value>, ...},
      "stage_latency_ns": {"<stage>": {count, mean, p50, p99, p999, max}}
    }

Throughput keys are flat so scripts/bench_compare.py diffs them with a
plain dict walk. Only bench-computed rate/ratio gauges are kept (names
matching mpps / gain / speedup / vs_) — structure-internal counters stay
in the raw blobs. Stage latencies come from the instrumented leg's
"trace.stage.<stage>" histograms in "global", keyed by bare stage name;
all-zero stages are dropped.

Stdlib only.
"""
import argparse
import json
import os
import re
import sys

# The pinned suite: (workdir file, key prefix, required?)
BENCH_BLOBS = [
    ("tab01.json", "tab01", True),
    ("abl_batch.json", "abl_batch", True),
    ("abl_sharding.json", "abl_sharding", True),
    # Durability overhead (PR 8+); absent in snapshots recorded earlier.
    ("abl_snapshot.json", "abl_snapshot", False),
    # Lock-free multi-writer ablation (PR 10+).
    ("abl_concurrent.json", "abl_concurrent", False),
]

THROUGHPUT_RE = re.compile(r"(mpps|gain|speedup|vs_)", re.IGNORECASE)
LATENCY_FIELDS = ("count", "mean", "p50", "p99", "p999", "max")
STAGE_PREFIX = "trace.stage."


def load_json(path):
    with open(path) as f:
        return json.load(f)


def collect_throughput(workdir):
    out = {}
    for fname, prefix, required in BENCH_BLOBS:
        path = os.path.join(workdir, fname)
        if not os.path.exists(path):
            if required:
                sys.exit(f"error: missing {path} (run bench_snapshot.sh)")
            continue
        blob = load_json(path)
        for case, metrics in sorted(blob.get("cases", {}).items()):
            for name, m in sorted(metrics.items()):
                if m.get("type") != "gauge" or not THROUGHPUT_RE.search(name):
                    continue
                out[f"{prefix}:{case}:{name}"] = m["value"]
    if not out:
        sys.exit("error: no throughput gauges found in any blob")
    return out


def collect_stage_latency(workdir):
    path = os.path.join(workdir, "trace_metrics.json")
    if not os.path.exists(path):
        return {}
    blob = load_json(path)
    if not blob.get("telemetry_enabled"):
        print("note: trace_metrics.json from a QMAX_TELEMETRY=OFF build; "
              "no stage latencies recorded", file=sys.stderr)
        return {}
    out = {}
    for name, h in sorted(blob.get("global", {}).items()):
        if not name.startswith(STAGE_PREFIX) or h.get("count", 0) == 0:
            continue
        out[name[len(STAGE_PREFIX):]] = {k: h[k] for k in LATENCY_FIELDS
                                         if k in h}
    return out


def next_snapshot_number(root):
    n = 0
    for fname in os.listdir(root):
        m = re.fullmatch(r"BENCH_(\d+)\.json", fname)
        if m:
            n = max(n, int(m.group(1)))
    return n + 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir")
    ap.add_argument("--out", help="output path (default BENCH_<n>.json "
                                  "at the repo root)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config_path = os.path.join(args.workdir, "config.json")
    config = load_json(config_path) if os.path.exists(config_path) else {}

    if args.out:
        out_path = args.out
        m = re.search(r"BENCH_(\d+)\.json$", out_path)
        number = int(m.group(1)) if m else 0
    else:
        number = next_snapshot_number(root)
        out_path = os.path.join(root, f"BENCH_{number}.json")

    snapshot = {
        "schema": "qmax-bench-snapshot/1",
        "snapshot": number,
        "config": config,
        "throughput": collect_throughput(args.workdir),
        "stage_latency_ns": collect_stage_latency(args.workdir),
    }
    with open(out_path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"{out_path}: {len(snapshot['throughput'])} throughput metrics, "
          f"{len(snapshot['stage_latency_ns'])} traced stages")


if __name__ == "__main__":
    main()
