#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Every workload at tiny size, untraced and traced, must pass its
   correctness gate and print every declared metric with its unit
   (run.py checks the names and units against BENCHMARK.json).
2. A copy of pins.txt with one wrong value per phase must make the gate
   fail, and the failure must name each planted key.
Exits 0 when all of this holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# one pinned value per phase, all checked by a --tiny run of seed 1
PLANTED = [
    "cosim/slice/yqh.cycles",
    "v1/nemu/slice/cold.insns",
    "v1/grid/slice/fuzz.coverage",
    "serve/run.cold_digest",
]


def bench(workload, trace, extra=()):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny"] + list(extra),
        cwd=ROOT, capture_output=True, text=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for w in names:
        for trace in (0, 1):
            p = bench(w, trace)
            ok = p.returncode == 0
            if ok:
                res = json.loads(p.stdout.splitlines()[-1])
                ok = res["correct"] and res["failed"] == 0
                for k, v in sorted(res["metrics"].items()):
                    print("  %-6s trace=%d %-30s %.6g %s" % (w, trace, k, v["value"], v["unit"]))
            print("%s trace=%d: %s" % (w, trace, "ok" if ok else "FAILED"))
            if not ok:
                failures.append("%s trace=%d: %s" % (w, trace, p.stderr[-2000:]))

    scratch = os.path.join(ROOT, ".perfbench_smoke")
    os.makedirs(scratch, exist_ok=True)
    try:
        planted = os.path.join(scratch, "pins.txt")
        with open(os.path.join(HERE, "pins.txt")) as f:
            lines = f.read().splitlines()
        seen = set()
        with open(planted, "w") as f:
            for line in lines:
                key = line.split(" ", 1)[0]
                if key in PLANTED:
                    seen.add(key)
                    line = key + " planted-wrong-value"
                f.write(line + "\n")
        if seen != set(PLANTED):
            failures.append("planted keys missing from pins.txt: %s"
                            % sorted(set(PLANTED) - seen))
        p = bench(names[0], 0, ["--pins", planted])
        last = p.stdout.splitlines()[-1] if p.stdout else "{}"
        gate_failed = p.returncode != 0 and json.loads(last).get("correct") is False
        named = [k for k in PLANTED if ("pin %s:" % k) in p.stderr]
        print("planted wrong pins: gate %s, %d/%d keys reported"
              % ("failed" if gate_failed else "PASSED", len(named), len(PLANTED)))
        if not gate_failed or len(named) != len(PLANTED):
            failures.append("planted pins not caught: exit %d, stderr %s"
                            % (p.returncode, p.stderr[-2000:]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
