#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root; builds through run.py if needed (about a
minute the first time, then about two minutes of short runs).  Checks that:
  - a short run of each workload prints every metric BENCHMARK.json names,
    with its unit, in both the untraced and the traced mode;
  - a deliberately perturbed pin is reported as a failure (non-zero exit,
    "correct": false);
  - fault-resume restores a generation > 0 and finishes bit-exact.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, proc.stdout, result


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def metrics_match(result, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    return got == want and all(
        isinstance(v.get("value"), (int, float))
        for v in result["metrics"].values())


# local-dwf is not in BENCHMARK.json (see README) but stays runnable.
for w in ("halo-cg", "local-dwf", "fault-resume"):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, out, res = run(w, trace)
        expect(code == 0 and res is not None and res["correct"]
               and res["failed"] == 0 and res["attempted"] >= 1,
               f"{w} --trace {trace}: exits 0 with a correct result")
        expect(res is not None and metrics_match(res, section),
               f"{w} --trace {trace}: prints every {section} metric with its unit")
        if w == "fault-resume" and trace == 0:
            m = re.search(r"resume: generation (\d+), bit-exact (\w+)", out)
            expect(m is not None and int(m.group(1)) > 0
                   and m.group(2) == "yes",
                   "fault-resume restores a generation > 0 bit-exact")
        if w == "local-dwf" and trace == 1:
            expect(res is not None and res["metrics"]["sim.events"]["value"] == 0,
                   "local-dwf runs zero engine events")

code, out, res = run("local-dwf", 0, "--perturb-pin")
expect(code != 0 and res is not None and not res["correct"]
       and res["failed"] >= 1 and "!= pinned" in out,
       "a perturbed pin is reported as a failure")

print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
