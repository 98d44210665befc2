#!/usr/bin/env python3
"""Benchmark entry point for the mutable-checkpoint simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the driver
(perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR or
.bench_build; later calls rebuild only when a source file changed.
Each call runs one workload in its own process and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end_to_end metrics of BENCHMARK.json,
--trace 1 the per_layer ones. A failed correctness check exits non-zero
and prints no result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def source_digest():
    """SHA-256 over every source the driver is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(bdir):
    """Configures and builds the driver unless the stamp matches."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "system.hpp")):
        raise RuntimeError("simulator sources (src/) are missing")
    digest = source_digest()
    stamp = os.path.join(bdir, "source.sha256")
    exes = [os.path.join(bdir, n) for n in ("mckbench", "mckbench_selftest")]
    if os.path.isfile(stamp) and all(os.path.isfile(e) for e in exes):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return digest
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ):
        log("building: " + " ".join(cmd))
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return digest


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_result(result, expected):
    """Returns a list of problems with the driver's result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("driver reported an incorrect result")
    got = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json: "
                        "missing %s, extra %s" % (
                            sorted(set(names) - set(got)),
                            sorted(set(got) - set(names))))
    for name, value in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s is not a finite number" % name)
    return problems


def run_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (expected one of %s)" % (args.workload,
                                                          names))
        return 2
    bdir = build_dir()
    digest = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "mckbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        log("driver exited with status %d; no result" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result line")
        return 1
    expected = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    problems = check_result(result, expected)
    if problems:
        for p in problems:
            log(p)
        return 1
    try:
        host = json.loads(lines[0])["host"]
    except (ValueError, KeyError, TypeError):
        log("driver printed no host line")
        return 1
    host.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "machine": platform.machine(),
                 "git_sha": git_sha(), "source_sha256": digest})
    print(json.dumps({"host": host}))
    units = {m["name"]: m["unit"] for m in expected}
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": 0, "metrics": metrics}), flush=True)
    return 0


def check_spec(spec):
    """Returns a list of problems with BENCHMARK.json's own shape."""
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("an end-to-end bound is outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must carry the largest bound")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["better"] not in ("higher", "lower"):
            problems.append("%s: better must be higher or lower" % m["name"])
    return problems


def self_test(spec):
    """Checks the result validation, then runs the C++ self-test."""
    failures = ["BENCHMARK.json: " + p for p in check_spec(spec)]
    for section in ("end_to_end", "per_layer"):
        expected = spec[section]
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: 1.0 for m in expected}}
        if check_result(good, expected):
            failures.append(section + ": a complete result was refused")
        for tamper in ("drop", "extra", "nan"):
            bad = json.loads(json.dumps(good))
            first = expected[0]["name"]
            if tamper == "drop":
                del bad["metrics"][first]
            elif tamper == "extra":
                bad["metrics"]["not_in_benchmark_json"] = 1.0
            else:
                bad["metrics"][first] = float("nan")
            if not check_result(bad, expected):
                failures.append("%s: a result with a %s metric passed" % (
                    section, tamper))
    for f in failures:
        log("FAIL: " + f)
    bdir = build_dir()
    build(bdir)
    rc = subprocess.run([os.path.join(bdir, "mckbench_selftest")],
                        timeout=DRIVER_TIMEOUT_S).returncode
    return 1 if failures or rc != 0 else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.self_test:
            return self_test(spec)
        if args.workload is None:
            p.error("--workload is required")
        if args.seed < 0:
            p.error("--seed must be >= 0")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds < 1:
            p.error("--seconds must be >= 1")
        return run_workload(args, spec)
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
