#!/usr/bin/env python3
"""Build and run the live-session benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_uniform --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR or .bench_build. The benchmark binary prints
its tables and, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is nonzero when
the build fails, a correctness check fails, or the printed metrics differ from
the ones BENCHMARK.json names. --self-check runs the ledger arithmetic checks
and every workload at smoke size (a 20 K-flow trace), traced and untraced.
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
WORKLOADS = ["paper_uniform", "paper_sidecars_query", "rcs_sidecars"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    binary = os.path.join(out, "live_bench")
    # Configure on every build: it is cheap, and it refreshes the git sha
    # that src/common bakes into build_info at configure time, so a build
    # directory reused across commits reports the commit it was built from.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j4", "--target", "live_bench"]]
    for cmd in steps:
        if run_logged(cmd, log_path) != 0:
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-30:]))
            sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
            return None
    return binary


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def source_digest():
    """SHA-256 prefix over src/ and perfbench/: provenance where git is absent."""
    paths = []
    for base in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, base)):
            paths += [os.path.join(dirpath, f) for f in files]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_bench(binary, workload, seed, seconds, trace, smoke=False, echo=True):
    """Run one workload; returns (exit code, parsed last line or None)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", results,
           "--source-digest", source_digest()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        # The binary's last line is the result; the tables go first.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write("perfbench: no result line from %s\n" % workload)
        return proc.returncode or 1, None
    want = expected_metrics(trace)
    if want is not None and sorted(result.get("metrics", {})) != want:
        sys.stderr.write("perfbench: metrics %s differ from BENCHMARK.json %s\n"
                         % (sorted(result.get("metrics", {})), want))
        return 1, None
    return proc.returncode, result


def self_check(binary):
    failures = 0
    if subprocess.run([binary, "--self-check"]).returncode != 0:
        failures += 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_bench(binary, workload, 7, 1, trace, smoke=True, echo=False)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0)
            print("smoke %-22s trace %d: %s" % (workload, trace, "ok" if ok else "FAILED"))
            failures += 0 if ok else 1
    print("perfbench self-check: %s" % ("ok" if failures == 0 else "%d FAILED" % failures))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="20 K-flow trace")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return self_check(binary)
    code, result = run_bench(binary, args.workload, args.seed, args.seconds,
                             args.trace, smoke=args.smoke)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
