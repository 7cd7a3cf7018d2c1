#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark of record (see NOTES.md).

Run from the repository root:

  python3 perfbench/run.py --workload check-mix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-check      # determinism + second seed, small sizes

The first call configures and builds perfbench and xmlvc-serve from
source into $CARGO_TARGET_DIR (default .bench_build) as a Release build.
The report lines of the perfbench binary come first, then one environment line,
and the last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["check-mix", "serve-hot", "serve-churn"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                  "xmlvc-serve"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout is not
    always a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".cpp", ".h", ".txt", ".xvc")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def cpu_times():
    """Aggregate /proc/stat CPU times (user ... steal), or None."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
        return [int(x) for x in fields]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from the machine."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return round(delta[7] / total, 4) if total > 0 else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return [metric["name"] for metric in spec[key]]


def run_binary(workload, seed, seconds, trace, small=False):
    """Runs the perfbench binary once; returns (exit code, stdout lines)."""
    binary = os.path.join(build_dir(), "perfbench")
    args = [binary, "--workload=" + workload, "--seed=" + str(seed),
            "--seconds=" + str(seconds), "--trace=" + ("1" if trace else "0"),
            "--serve-binary=" + os.path.join(build_dir(), "xmlvc-serve"),
            "--inputs=" + os.path.join(HERE, "inputs")]
    if small:
        args.append("--small")
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: binary exceeded %d s" % RUN_TIMEOUT_S)
        return 124, []
    if done.stderr:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def run_once(args):
    load_before, cpu_before = os.getloadavg(), cpu_times()
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    load_after, cpu_after = os.getloadavg(), cpu_times()
    result = parse_result(lines)
    if result is None:
        for line in lines:
            log(line)
        log("perfbench: binary exited %d without a result line" % code)
        return code or 1
    build_info = {}
    for line in lines:
        if line.startswith("build "):
            build_info = json.loads(line[len("build "):])
    missing = set(expected_metrics(args.trace)) - set(result["metrics"])
    extra = set(result["metrics"]) - set(expected_metrics(args.trace))
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_digest": source_digest(),
        "build": build_info, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "cpu_steal_share": steal_share(cpu_before, cpu_after),
    }
    for line in lines[:-1]:
        print(line)
    print("# environment " + json.dumps(environment, sort_keys=True))
    if missing or extra:
        log("perfbench: metric set differs from BENCHMARK.json: missing %s, extra %s"
            % (sorted(missing), sorted(extra)))
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"] or code != 0:
        log("perfbench: verdict check failed (exit %d)" % code)
        return code or 1
    return 0


def counts_of(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def digest_of(lines):
    for line in lines:
        if line.startswith("# inputs_digest "):
            return line.split()[2]
    return None


def self_check():
    """Same seed twice: byte-identical inputs and identical exact work
    counts; a second seed must run cleanly. Small sizes, a few seconds
    per workload."""
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed, trace in ((7, True), (7, True), (8, True), (8, False)):
            code, lines = run_binary(workload, seed, 1, trace, small=True)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                log("self-check: %s seed %d trace %d FAILED (exit %d)"
                    % (workload, seed, trace, code))
                for line in lines:
                    log("  " + line)
                ok = False
                result = None
            runs.append((lines, result))
        (a_lines, a), (b_lines, b) = runs[0], runs[1]
        if digest_of(a_lines) is None or digest_of(a_lines) != digest_of(b_lines):
            log("self-check: %s inputs differ between two runs of seed 7" % workload)
            ok = False
        if a and b:
            differ = {k: (v, counts_of(b).get(k)) for k, v in counts_of(a).items()
                      if counts_of(b).get(k) != v and k.startswith(
                          ("ilp.", "base.", "hierarchical.", "bounded."))}
            if differ:
                log("self-check: %s exact counts differ across runs: %s"
                    % (workload, differ))
                ok = False
        log("self-check: %s %s" % (workload, "ok" if ok else "FAILED"))
    print("self-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.self_check:
        return self_check()
    args.trace = bool(args.trace)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
