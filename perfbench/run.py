#!/usr/bin/env python3
"""perfbench: closed-loop benchmark of remi_server (see perfbench/README.md).

Builds remi_server and the harness from this source tree (Release) and runs
one workload, or all of them:

  python3 perfbench/run.py --workload serve_reload --seed 1 --seconds 8 --trace 0
  python3 perfbench/run.py --workload all --seed 1          # every workload
  python3 perfbench/run.py --check --seed 1                 # seed hygiene
  python3 perfbench/run.py --selftest                       # harness tests

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to standard error. The build tree is $CARGO_TARGET_DIR
(default .bench_build) under the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_paper", "serve_mixed", "serve_light", "serve_reload"]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(targets, tests=False):
    """Configures (Release) and builds `targets`; returns the build dir."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERFBENCH_BUILD_TESTS=" + ("ON" if tests else "OFF")]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", out, "-j", jobs, "--target"] + targets):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha1:" + digest.hexdigest()[:16]


def run_workload(out, workload, seed, seconds, trace, commit, pool_seed=1):
    """Runs the harness once; returns (exit code, result, output lines)."""
    cmd = [os.path.join(out, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--pool-seed", str(pool_seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", os.path.join(out, "remi", "remi_server"),
           "--data-dir", os.path.join(os.path.dirname(out), "perfbench-data"),
           "--commit", commit]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    sys.stdout.flush()
    return done.returncode, result, lines


def metric_line(lines, name):
    """The value of a `<workload> <name> <value> ...` line, or None."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[1] == name:
            return float(parts[2])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=1,
                        help="seed of the question pool (default 1)")
    parser.add_argument("--check", action="store_true",
                        help="seed hygiene: every workload at --seed and "
                             "--pool-seed, then at a second seed and pool; "
                             "report error_rate and the slowest request")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"], tests=True)
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")])
                 .returncode)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        parser.error("unknown workload %r" % args.workload)
    out = build(["perfbench", "remi_server"])
    commit = source_revision()

    if args.check:
        seeds = [(args.seed, args.pool_seed),
                 (args.seed + 1, args.pool_seed + 1)]
        rows, bad = [], False
        for workload in workloads:
            for seed, pool_seed in seeds:
                code, result, lines = run_workload(
                    out, workload, seed, args.seconds, 0, commit, pool_seed)
                error_rate = metric_line(lines, "error_rate")
                slowest = metric_line(lines, "slowest_ms")
                rows.append((workload, seed, pool_seed, error_rate, slowest,
                             code))
                bad |= code != 0 or result is None or not result["correct"] \
                    or error_rate != 0.0
        print("\nseed hygiene: workload seed pool_seed error_rate "
              "slowest_ms exit")
        for row in rows:
            print("  %-13s %6d %9d %10s %12s %4d" % row)
        print(json.dumps({"correct": not bad, "attempted": len(rows),
                          "failed": sum(1 for r in rows if r[5] != 0),
                          "metrics": {}}))
        sys.exit(1 if bad else 0)

    if len(workloads) == 1:
        code, result, _ = run_workload(out, workloads[0], args.seed,
                                       args.seconds, args.trace, commit,
                                       args.pool_seed)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        code, result, _ = run_workload(out, workload, args.seed, args.seconds,
                                       args.trace, commit, args.pool_seed)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
