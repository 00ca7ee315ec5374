#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The program is built with CMake into
.bench_build/ (perfbench/CMakeLists.txt adds the repository's own root
CMakeLists.txt, so the program gets the repository's flags).  The last line
of standard output is the JSON result; --trace 0 reports the end-to-end
metrics of BENCHMARK.json and --trace 1 the per-layer ones.  The result is
checked against BENCHMARK.json before it is printed.

--self-test runs every workload at its smallest size in both modes, checks
that every metric named in BENCHMARK.json is emitted with its unit, that the
traced span records' self times sum to each root span's duration, and that
the benchmark refuses to run without the program's sources.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; build output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the program's sources (CMakeLists.txt, src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        fail("build produced no perfbench binary")


def run_binary(args, timeout):
    """Runs the binary; returns (detail lines, result dict) or exits."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out after {timeout} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"perfbench {' '.join(args)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    return lines[:-1], json.loads(lines[-1])


def check_result(result, spec, trace):
    """Returns a list of problems with `result` against the metric list."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append(f"missing {sorted(names - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - names)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
    return problems


def measure(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()
    spans = BUILD_DIR / f"spans_{args.workload}_{args.seed}.tsv"
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    details, result = run_binary(cmd, timeout=int(2 * args.seconds) + 90)
    problems = check_result(result, spec, args.trace)
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        fail("result does not match BENCHMARK.json", code=1)
    for line in details:
        print(line)
    print(json.dumps(result), flush=True)


def check_spans(path):
    """Self time identity on written span records, recomputed independently."""
    rows = {}
    with open(path) as f:
        next(f)  # "# ns_per_tick <x>"
        next(f)  # column names
        for line in f:
            thread, index, parent, kind, start, end = line.rstrip("\n").split("\t")
            rows.setdefault(int(thread), []).append(
                (int(index), int(parent), kind, int(start), int(end)))
    checked = 0
    for thread, records in rows.items():
        child = [0] * len(records)
        for index, parent, _, start, end in records:
            if parent >= 0:
                child[parent] += end - start
        subtree = [0] * len(records)
        for index, parent, _, start, end in reversed(records):
            subtree[index] += (end - start) - child[index]
            if parent >= 0:
                subtree[parent] += subtree[index]
        # Each thread's last root may be cut by its record quota.
        complete = [r for r in records if r[1] < 0][:-1]
        for index, _, kind, start, end in complete:
            if subtree[index] != end - start:
                return f"thread {thread} root {index} ({kind}): {subtree[index]} != {end - start}"
            checked += 1
    if checked == 0:
        return "no complete root spans recorded"
    return None


def self_test():
    spec = load_spec()
    build()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            spans = BUILD_DIR / f"selftest_spans_{workload}.tsv"
            cmd = ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--small"]
            if trace:
                cmd += ["--spans", str(spans)]
            details, result = run_binary(cmd, timeout=120)
            label = f"{workload} trace={trace}"
            problems = check_result(result, spec, trace)
            if not result.get("correct"):
                problems.append(f"not correct: {details[-1] if details else ''}")
            if result.get("failed"):
                problems.append(f"{result['failed']} failed operations")
            if trace:
                err = check_spans(spans)
                if err:
                    problems.append(f"span self times: {err}")
            for p in problems:
                failures.append(f"{label}: {p}")
            print(f"{label}: {'ok' if not problems else 'FAIL'}")

    # Without the program's sources the benchmark must refuse to run.
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name)
        started = time.monotonic()
        done = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        refused = done.returncode != 0 and '"metrics"' not in done.stdout
        print(f"bare checkout: {'refused' if refused else 'FAIL'} "
              f"(exit {done.returncode}, {time.monotonic() - started:.1f} s)")
        if not refused:
            failures.append("bare checkout: ran without the program's sources")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif not args.workload:
        parser.error("--workload is required")
    else:
        if args.seconds < 1:
            parser.error("--seconds must be >= 1")
        measure(args)


if __name__ == "__main__":
    main()
