#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_prism5g --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library modules under src/ plus the benchmark into .bench_build/; later
runs rebuild only what changed. The workload's parameters (UE counts,
rates, the rate ladder, the latency limit) come from
perfbench/workloads.json. The benchmark binary prints, as its last stdout line, one
JSON object with every end-to-end metric (--trace 0) or every per-layer
metric (--trace 1); a traced run also writes its spans under
.bench_build/spans/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; run from the repository root")
        sys.exit(2)
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()

    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    if not args.self_test:
        if args.workload not in spec["workloads"]:
            log(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(spec['workloads'])}")
            sys.exit(2)
        if args.seed is None or args.seconds is None or args.trace is None:
            log("--seed, --seconds and --trace are required")
            sys.exit(2)

    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"build failed: {e}")
        sys.exit(2)

    if args.self_test:
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode)

    params = dict(spec["shared"])
    params.update(spec["workloads"][args.workload]["params"])
    span_dir = ROOT / ".bench_build" / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--span-dir", str(span_dir)]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
