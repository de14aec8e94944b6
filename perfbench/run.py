#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source, generates the
workload's inputs from the seed, measures them and prints the result.

    python3 perfbench/run.py --workload rmat-count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # toy sizes, every workload, seconds

Run from the repository root. Everything it builds or writes lives under
.bench_build/ there. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (host, build, inputs, request tallies, failed checks).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build"
BUILD_DIR = WORK / "perfbench"
BINARY = BUILD_DIR / "perfbench_tc"
WORKLOADS = ["rmat-count", "sparse-count", "service-mix"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures on first use, then builds incrementally."""
    WORK.mkdir(exist_ok=True)
    log_path = WORK / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_tc", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(step))


def host_record():
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "kernel": platform.release(), "git_commit": commit}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(workload, seed, seconds, trace, toy):
    """Runs gen then run in their own processes; returns the harness JSON."""
    work = WORK / "perfbench-work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "scratch").mkdir()
    try:
        gen = [str(BINARY), "gen", "--workload", workload, "--seed", str(seed),
               "--out", str(work / "inputs")] + (["--toy"] if toy else [])
        if subprocess.run(gen, timeout=150).returncode != 0:
            fail(f"input generation failed for {workload}")
        run = subprocess.run(
            [str(BINARY), "run", "--inputs", str(work / "inputs"),
             "--seconds", str(seconds), "--trace", str(trace),
             "--scratch", str(work / "scratch")],
            capture_output=True, text=True, timeout=170)
        sys.stderr.write(run.stderr)
        if run.returncode != 0:
            fail(f"harness exited with {run.returncode}")
        return json.loads(run.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(harness, trace):
    """The record line and the result object of one measured run."""
    names = expected_metrics(trace)
    metrics = harness["metrics"]
    if sorted(metrics) != sorted(names):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(names))}")
    attempted = harness["attempted"]
    failed = harness["failed"] + harness["wrong"] + harness["degraded"]
    record = {k: v for k, v in harness.items() if k not in ("metrics", "record")}
    record.update(harness["record"])
    record["host"] = host_record()
    record["failed_share"] = failed / max(1, attempted)
    record["degraded_share"] = harness["degraded"] / max(1, attempted)
    result = {
        "correct": failed == 0 and not harness["checks"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in names},
    }
    return record, result


def smoke():
    """Toy sizes, every workload, both runs: every metric name is emitted
    and nothing fails."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = summarize(
                measure(workload, 1, 1, trace, toy=True), trace)
            if not result["correct"] or record["failed_share"] != 0:
                fail(f"smoke: {workload} trace={trace} failed: "
                     f"{json.dumps(record)}")
            print(f"smoke ok: {workload} trace={trace} "
                  f"({len(result['metrics'])} metrics, "
                  f"{result['attempted']} requests)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, all workloads, checks names only")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")

    build()
    if args.smoke:
        smoke()
        return
    record, result = summarize(
        measure(args.workload, args.seed, args.seconds, args.trace,
                toy=False), args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
