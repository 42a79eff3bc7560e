#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The repository and the benchmark program (popbench)
are built with CMake into $CARGO_TARGET_DIR (default .bench_build) on the
first run and reused after. Each workload runs in its own process. The last
line of standard output is the result object; the lines before it are the
build stamp and the workload's own metric names with sample counts.
BENCHMARK.json lists the workloads and metrics; perfbench/README.md defines
them and perfbench/layers.json maps layers to the metrics they should move.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log(f"perfbench: {what} failed (exit {proc.returncode})")
        sys.exit(1)


def build(targets):
    out = build_dir()
    run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
              "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
              "build")
    return out


def source_sha():
    """The git revision when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(out, spec, workload, seed, seconds, trace, sha):
    work = os.path.join(out, "work", f"{workload}-{os.getpid()}")
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "popbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--bin-dir", os.path.join(out, "repo", "tools"),
           "--work-dir", work, "--source-sha", sha,
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        log(f"perfbench: {workload} reported metrics that differ from "
            "BENCHMARK.json")
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload}; choose from {names}")
    out = build(["popbench", "popprotod", "popsweep"])
    sha = source_sha()

    if args.workload != "all":
        result = run_workload(out, spec, args.workload, args.seed,
                              args.seconds, args.trace, sha)
        if result is None:
            sys.exit(1)
        print(json.dumps(result), flush=True)
        return

    results = {}
    for name in names:
        result = run_workload(out, spec, name, args.seed, args.seconds,
                              args.trace, sha)
        if result is None:
            sys.exit(1)
        print(json.dumps(result), flush=True)
        results[name] = result
    print(json.dumps(results), flush=True)


if __name__ == "__main__":
    main()
