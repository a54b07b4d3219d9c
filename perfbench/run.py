#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload day --seed 42 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(its output on stderr, so the last line of stdout stays the result); the
traced run writes its spans under .bench_build/perfbench-trace/. Every other
argument is passed to the benchmark unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources next to perfbench/; "
                 "run from the root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def trace_file(args):
    """The span file for a traced run, named after workload and seed."""
    def value(flag):
        return args[args.index(flag) + 1] if flag in args[:-1] else "x"
    if value("--trace") != "1":
        return []
    out = os.path.join(ROOT, ".bench_build", "perfbench-trace")
    os.makedirs(out, exist_ok=True)
    name = "%s-seed%s.tsv" % (value("--workload"), value("--seed"))
    return ["--trace-file", os.path.join(out, name)]


def main():
    args = sys.argv[1:]
    build()
    sys.stdout.flush()
    result = subprocess.run([BINARY] + args + trace_file(args), cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
