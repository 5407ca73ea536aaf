#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 hqbench/run.py --workload <tpch_seq|bi_replay|etl_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the hqbench program (the proxy
libraries from src/ plus hqbench/src) into .bench_build/hqbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the program's JSON result. Exits non-zero, without a result, when
the build fails or the sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hqbench")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("hqbench: no proxy sources under %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    compile_cmd = ["cmake", "--build", BUILD, "--target", "hqbench",
                   "-j", JOBS]
    return subprocess.call(compile_cmd, stdout=sys.stderr) == 0


def main():
    if not build():
        sys.stderr.write("hqbench: build failed\n")
        return 1
    binary = os.path.join(BUILD, "hqbench")
    return subprocess.call([binary] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
