#!/usr/bin/env python3
"""Build and run bench_cycle, the submit-to-patch benchmark of rinkit.

Run from the root of the repository:

    python3 bench/cycle/run.py
        builds bench_cycle, runs every workload untraced and traced, prints
        every metric by name with its unit, writes each traced run's Chrome
        trace under .bench_build/cycle/, and exits nonzero on any failed check.

    python3 bench/cycle/run.py --workload W --seed N --seconds S --trace 0|1
        one run; the last stdout line is one JSON object with the keys
        correct, attempted, failed and metrics. --trace 0 reports the
        end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones.

    python3 bench/cycle/run.py --smoke
        every workload for about 2 s with checks on, one traced run, and
        bench_cycle --self-test; fails if any metric BENCHMARK.json lists is
        missing from the output.

Everything is built and written under .bench_build/ in the repository root.
Python 3 standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "cycle"
BINARY = BUILD / "bench_cycle"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
RETRY_BEFORE_S = 80  # re-run a lag-invalid run only if this much time is left
SMOKE_SECONDS = 2


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally. Build output goes to stderr
    so the result stays the last line of stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rinkit sources at {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "bench_cycle"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench(*args):
    """Runs bench_cycle; returns (info dict, result dict)."""
    cmd = [str(BINARY), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"bench_cycle exited {proc.returncode}: " + " ".join(cmd))
    info = {}
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    return info, json.loads(lines[-1])


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds]
    if trace:
        BUILD.mkdir(parents=True, exist_ok=True)
        args += ["--trace", BUILD / f"trace-{workload}.json"]
    info, result = bench(*args)
    if not result["valid"] and time.monotonic() - start < RETRY_BEFORE_S:
        print("run.py: generator lag p99 above 5 ms; repeating the run", file=sys.stderr)
        info, result = bench(*args)
    if not result["valid"]:
        fail("generator lag p99 above 5 ms: the run is invalid and not scored", 3)
    info["sha"] = git_sha()
    info["ref_ms"] = result["metrics"]["gen.ref_ms"]["value"]  # host speed during the run
    return info, result


def select(spec, result, kind):
    """The metrics of BENCHMARK.json section @p kind, checked for presence and unit."""
    metrics = {}
    for entry in spec[kind]:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} missing from bench_cycle output")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} has unit {got['unit']}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = got
    return metrics


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload:
        info, result = run_once(args.workload, args.seed, seconds, args.trace)
        metrics = select(spec, result, "per_layer" if args.trace else "end_to_end")
        print("# info " + json.dumps(info))
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if result["correct"] else 1

    ok = True
    if args.smoke:
        if subprocess.run([str(BINARY), "--self-test"]).returncode != 0:
            print("run.py: self-test failed", file=sys.stderr)
            ok = False
        seconds = SMOKE_SECONDS
    names = [w["name"] for w in spec["workloads"]]
    traced = names[:1] if args.smoke else names
    for name in names:
        for trace in (0, 1) if name in traced else (0,):
            info, result = run_once(name, args.seed, seconds, trace)
            kind = "per_layer" if trace else "end_to_end"
            print_table(f"{name} ({kind}, {result['attempted']} ticks, failed {result['failed']}, "
                        f"correct {result['correct']}) {json.dumps(info)}",
                        select(spec, result, kind))
            if trace:
                print(f"  chrome trace: {BUILD / f'trace-{name}.json'}")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
