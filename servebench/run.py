#!/usr/bin/env python3
"""Builds and runs FuzzyDB's served benchmark (servebench).

Run from the repository root:

    python3 servebench/run.py --workload olap_nested --seed 1 --seconds 10 --trace 0

The first run configures and builds the FuzzyDB libraries, the
fuzzydb_server binary and the harness from source into the build
directory ($CARGO_TARGET_DIR, else .bench_build); later runs rebuild only
what changed. Every argument is passed on to the harness (servebench/
main.cc documents them). Build output goes to stderr; the harness's
stdout is passed through, so its last line is the result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: FuzzyDB sources (src/) not found next to servebench/")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j3", "--target", "servebench",
         "fuzzydb_server_bin"],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(step))


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    command = [
        os.path.join(build_dir, "servebench"),
        "--server", os.path.join(build_dir, "fuzzydb_tools", "fuzzydb_server"),
        "--workdir", build_dir,
    ] + sys.argv[1:]
    sys.stdout.flush()
    # The harness reaps every server it starts; the pipe keeps its
    # output ordered after the build's.
    result = subprocess.run(command)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
