#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

    python3 perfbench/run.py --workload <halo-cg|local-dwf|fault-resume> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
library and the benchmark (Release, assertions on) under .bench_build/;
later runs only check that the build is up to date.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  Scratch
files (snapshot generations, Chrome traces) go under .bench_run/.
"""
import argparse
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN = ROOT / ".bench_run"
WORKLOADS = ("halo-cg", "local-dwf", "fault-resume")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources at src/; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "2"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "qcdoc_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-pin", action="store_true",
                    help="flip every pinned value (self-test of the checks)")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    RUN.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(RUN)]
    if args.trace:
        cmd += ["--trace-out",
                str(RUN / f"trace-{args.workload}-{args.seed}.json")]
    if args.perturb_pin:
        cmd.append("--perturb-pin")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
