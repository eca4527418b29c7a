#!/usr/bin/env python3
"""Builds and runs the MIND end-to-end benchmark (see README.md here).

One run:
    python3 mindbench/run.py --workload backbone_day --seed 1 --seconds 45 --trace 0

prints the per-kind operation counts and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or the
per-layer metrics with --trace 1. The first run in a checkout compiles the
library from ../src into .bench_build/ (Release).

Repeated runs, to set bounds or to compare two sets of runs:
    python3 mindbench/run.py --repeat 10 [--workload NAME] [--seed 1] [--seconds 45]

runs each workload with seeds seed..seed+N-1 and prints every end-to-end
metric's median, quartiles and quartile spread as a share of the median.

Self-test of the correctness checks against planted wrong answers:
    python3 mindbench/run.py --selftest

--telemetry off builds and runs a second binary with the library's telemetry
compiled out (MIND_TELEMETRY=OFF).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["backbone_day", "fleet1k"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(telemetry):
    """Configures and builds the benchmark; returns the binary's path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "mindbench-telemetry-" + telemetry)
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DMIND_TELEMETRY=" + ("ON" if telemetry == "on" else "OFF")]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("mindbench: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "mindbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("mindbench: build failed")
        sys.exit(2)
    return os.path.join(build_dir, "mindbench"), build_dir


def run_once(binary, build_dir, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed last-line JSON or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, "%s-seed%d.csv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("mindbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 3, None
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def repeat(binary, build_dir, workloads, n, seed, seconds):
    worst = 0
    for workload in workloads:
        values = {}
        units = {}
        shares = set()
        for i in range(n):
            code, result = run_once(binary, build_dir, workload, seed + i,
                                    seconds, False, echo=False)
            if code != 0 or result is None:
                log("mindbench: %s seed %d failed (exit %d)" %
                    (workload, seed + i, code))
                worst = max(worst, code or 1)
                continue
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s: %d runs, seeds %d..%d, failed/attempted %s" %
              (workload, n, seed, seed + n - 1,
               sorted("%d/%d" % s for s in shares)))
        print("  %-24s %14s %14s %14s %9s" %
              ("metric", "q1", "median", "q3", "iqr/med"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-24s %14.6g %14.6g %14.6g %8.2f%%  %s" %
                  (name, q1, med, q3, 100 * spread, units[name]))
            print("  %-24s %s" % ("", " ".join("%.6g" % v for v in vals)))
        sys.stdout.flush()
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--telemetry", choices=["on", "off"], default="on")
    p.add_argument("--repeat", type=int, default=0,
                   help="run each workload this many times, seeds seed.. on")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    binary, build_dir = build(args.telemetry)
    if args.selftest:
        proc = subprocess.run([binary, "--selftest", "--seed", str(args.seed)],
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode
    if args.repeat > 0:
        workloads = [args.workload] if args.workload else WORKLOADS
        return repeat(binary, build_dir, workloads, args.repeat, args.seed,
                      args.seconds)
    if not args.workload:
        p.error("--workload is required")
    code, result = run_once(binary, build_dir, args.workload, args.seed,
                            args.seconds, args.trace == 1)
    if result is None and code == 0:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
