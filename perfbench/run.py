#!/usr/bin/env python3
"""Build and run the MINJIE benchmark.

    python3 perfbench/run.py --workload cosim|nemu|grid|serve \
        --seed N --seconds S --trace 0|1 [--tiny] [--pins FILE]

Builds perfbench/perfbench.exe from the source tree this script sits
in (dune, shared cache off so nothing is written outside the tree),
runs it from the tree root, and relays its output.  The last stdout
line is the result object; its metric names are checked against
BENCHMARK.json (end_to_end without --trace 1, per_layer with it).
Exits non-zero, without a result, when the tree cannot be built or the
result does not match the declared metrics.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    sys.stderr.write("perfbench: %s\n" % msg)
    return code


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no MINJIE source tree (dune-project, lib/) at %s" % ROOT, 2)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed", build.returncode or 1)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    proc = subprocess.run([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        return fail("no output (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        return fail("last line is not a result object")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared)
                       if got[k] != declared[k])
        return fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                    "unit mismatch %s" % (missing, extra, units))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
