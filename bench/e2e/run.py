#!/usr/bin/env python3
"""Build and run the q-MAX end-to-end benchmark (stdlib only).

One workload, in the form automation uses; the last stdout line is the
result JSON (correct, attempted, failed, metrics):

    python3 bench/e2e/run.py --workload ovs_1c --seed 3 --seconds 10 --trace 0

Every workload, each in its own process, printed as tables of the
reported value, median, quartiles and sample count per metric (add
--trace 1 for the per-layer
budget, or --trace PATH to also write Chrome-trace JSON per workload):

    python3 bench/e2e/run.py

Every workload at 1/100 size with the oracle on (exit status only):

    python3 bench/e2e/run.py --smoke

The benchmark binary is built from source as part of the repository's
CMake build, in .bench_build under the repository root unless --build
names another build directory. Exit status: 0 when every answer matched
its oracle, 1 on a wrong answer, 2 when the build fails, 3 for a bad
argument, or when the binary fails or prints a result that does not
match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configure the repository build in build_dir with this directory
    added (hook.cmake), then build the binary; output goes to stderr. A new
    build_dir gets Release with tests, benches and examples off; an
    existing one keeps its options."""
    configure = ["cmake", "-S", ROOT, "-B", build_dir,
                 "-DCMAKE_PROJECT_qmax_INCLUDE=" + os.path.join(HERE, "hook.cmake")]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-DCMAKE_BUILD_TYPE=Release", "-DQMAX_BUILD_TESTS=OFF",
                      "-DQMAX_BUILD_BENCH=OFF", "-DQMAX_BUILD_EXAMPLES=OFF"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs,
                            "--target", "qmax_e2e"]):
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}", 2)
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}", 2)
    return os.path.join(build_dir, "qmax_e2e")


def run_binary(binary, args):
    """Run the binary to completion; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} exceeded {RUN_TIMEOUT_S} s", 3)
    except OSError as e:
        fail(f"cannot run {binary}: {e}", 3)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, expected):
    """The last line must be the result object with exactly the metric
    names BENCHMARK.json lists for this mode; returns (result, detail)."""
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])
    except (IndexError, ValueError):
        return None, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, None
    if set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        print(f"run.py: metric set differs from BENCHMARK.json: "
              f"missing {missing}, extra {extra}", file=sys.stderr)
        return None, None
    return result, detail


def run_workload(binary, bench, name, seed, seconds, trace, chrome_trace):
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"] for m in bench[key]}
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if chrome_trace:
        args += ["--chrome-trace", chrome_trace]
    rc, lines = run_binary(binary, args)
    result, detail = check_result(lines, expected)
    if result is None or rc not in (0, 1):
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"{name}: binary exited {rc} without a valid result", 3)
    return rc, lines, result, detail


def print_table(detail, result):
    checks = detail["checks"]
    print(f"\n== {detail['workload']} (seed {detail['seed']}, "
          f"trace {detail['trace']}, inputs + oracles "
          f"{detail['prepare_s']:.2f} s)")
    print(f"{'metric':36s} {'unit':8s} {'value':>13s} {'median':>13s} "
          f"{'p25':>13s} {'p75':>13s} {'n':>5s}")
    for name, s in detail["detail"].items():
        print(f"{name:36s} {s['unit']:8s} {s['value']:13.6g} "
              f"{s['median']:13.6g} {s['p25']:13.6g} {s['p75']:13.6g} "
              f"{s['n']:5d}")
    queries = max(1, checks["queries"])
    records = max(1, checks["records"])
    blank = " " * 41
    print(f"{'wrong_answer_frac':36s} {'ratio':8s} "
          f"{checks['wrong_answers'] / queries:13.6g} "
          f"{blank} {checks['queries']:5d}")
    print(f"{'lost_record_frac':36s} {'ratio':8s} "
          f"{checks['lost_records'] / records:13.6g} "
          f"{blank} {checks['records']:5d}")
    print(f"correct={str(result['correct']).lower()} "
          f"attempted={result['attempted']} failed={result['failed']}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload (default: every one)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measured seconds per run "
                   "(default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", default="0",
                   help="0, 1, or a Chrome-trace output path (implies 1)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at 1/100 size, oracle on")
    p.add_argument("--build", default=os.path.join(ROOT, ".bench_build"),
                   help="repository build directory to build the binary in "
                   "(may be an existing one, such as build)")
    a = p.parse_args()

    bench = load_benchmark()
    binary = build(os.path.abspath(a.build))
    if a.smoke:
        rc, lines = run_binary(binary, ["--smoke"])
        print("\n".join(lines))
        print(f"run.py: smoke {'passed' if rc == 0 else 'FAILED'}")
        sys.exit(0 if rc == 0 else 1)

    trace = a.trace != "0"
    trace_path = a.trace if a.trace not in ("0", "1") else None
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if a.workload:
        if a.workload not in names:
            fail(f"unknown workload {a.workload}; one of {names}", 3)
        rc, lines, _, _ = run_workload(binary, bench, a.workload, a.seed,
                                       seconds, trace, trace_path)
        print("\n".join(lines))
        sys.exit(rc)

    worst = 0
    for name in names:
        path = None
        if trace_path:
            stem, ext = os.path.splitext(trace_path)
            path = f"{stem}.{name}{ext or '.json'}"
        rc, lines, result, detail = run_workload(binary, bench, name, a.seed,
                                                 seconds, trace, path)
        if trace:
            # The self-time table the binary printed before its JSON lines.
            print(f"\n== {name}: span self time")
            print("\n".join(lines[:-2]))
        print_table(detail, result)
        worst = max(worst, rc)
    sys.exit(worst)


if __name__ == "__main__":
    main()
