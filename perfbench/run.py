#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

Builds perfbench/bench.exe with dune into .bench_build/, runs it, and
passes its output through; the last stdout line is the result object. A
traced run writes its Chrome trace and span summary to
.bench_build/perfbench-trace/. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a source checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                "perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 2

    tmp_dir = os.path.abspath(os.path.join(BUILD_DIR, "perfbench-tmp"))
    trace_dir = os.path.abspath(os.path.join(BUILD_DIR, "perfbench-trace"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env["TMPDIR"] = tmp_dir
    try:
        proc = subprocess.run([EXE] + argv + ["--trace-dir", trace_dir],
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark killed after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
