#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark (stdlib only).

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs N]

Runs every workload as PAIRS (at least 10) parent/change pairs, alternating
which side runs first, on seeds 1 .. PAIRS; both sides of a pair use the
same seed. Each side runs its own bench/e2e/run.py, which builds that
checkout on first use. The workloads, metric list, directions and bounds
come from the parent's BENCHMARK.json.

For every end-to-end metric and workload it reports each side's median and
quartiles, how many pairs the change won (ties count for neither), and a
verdict:
  gain         the change won >= 9/10 of the pairs and the medians differ
               by more than the parent's interquartile range;
  regression   the change's median is worse than the parent's by more than
               the metric's bound;
  unresolved   the parent's own spread (IQR / median) exceeds the bound and
               not every change run beat every parent run;
  ok           none of the above.
One row is printed per workload. Exit status: 1 if any pairing regressed,
2 if a run failed or gave a wrong answer.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def fail(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail(f"{checkout}: {workload} seed {seed}: wrong answer")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """Summary cell for one metric on one workload."""
    higher = metric["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    pm, cm = statistics.median(parent), statistics.median(change)
    p25, p75 = quartiles(parent)
    c25, c75 = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    pairs = len(parent)
    gain_frac = (cm - pm) / pm if higher else (pm - cm) / pm
    spread = (p75 - p25) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    if better(cm, pm) and wins >= math.ceil(0.9 * pairs) \
            and abs(cm - pm) > p75 - p25:
        word = "gain"
    elif spread > metric["bound"] and not all_better:
        word = "unresolved"
    elif -gain_frac > metric["bound"]:
        word = "regression"
    else:
        word = "ok"
    detail = (f"parent {pm:.4g} [{p25:.4g}, {p75:.4g}]  "
              f"change {cm:.4g} [{c25:.4g}, {c75:.4g}]")
    cell = f"{gain_frac * 100:+.1f}% {wins}/{pairs} {word}"
    return word, cell, detail


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    a = p.parse_args()
    if a.pairs < 10:
        fail("--pairs must be >= 10")

    bench = load_benchmark(a.parent)
    if bench != load_benchmark(a.change):
        print("compare.py: warning: BENCHMARK.json differs between the "
              "checkouts; using the parent's", file=sys.stderr)
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {w: {"parent": [], "change": []} for w in names}
    for i in range(a.pairs):
        seed = 1 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in names:
            for side in order:
                checkout = a.parent if side == "parent" else a.change
                runs[w][side].append(run_side(checkout, w, seed, seconds))
            print(f"pair {i + 1}/{a.pairs} {w} done", file=sys.stderr)

    regressed = False
    print(f"{a.pairs} pairs; cell = change vs parent (+ is better), "
          f"pairs won, verdict")
    print("workload".ljust(24) + "".join(m["name"].ljust(28) for m in metrics))
    details = []
    for w in names:
        row = w.ljust(24)
        for m in metrics:
            parent = [r[m["name"]] for r in runs[w]["parent"]]
            change = [r[m["name"]] for r in runs[w]["change"]]
            word, cell, detail = verdict(m, parent, change)
            regressed |= word == "regression"
            row += cell.ljust(28)
            details.append(f"  {w} {m['name']} ({m['unit']}, bound "
                           f"{m['bound']:.0%}): {detail}")
        print(row)
    print("\nmedian [p25, p75] per side:")
    print("\n".join(details))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
