#!/usr/bin/env python3
"""Builds and runs the end-to-end Check-N-Run benchmark.

Run from the root of a checkout:

    python3 cnrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 cnrbench/run.py --selftest

The first call configures and builds the benchmark (and the library sources
it measures) under .bench_build/cnrbench; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, if the build or
the run fails.

Before each run, the near-tier directories that earlier runs left under
.bench_out/tmp (one per tiered run, named <workload>-<pid>) are removed,
except those of runs still alive.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cnrbench")
TMP_DIR = os.path.join(".bench_out", "tmp")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("cnrbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def remove_stale_tmp():
    if not os.path.isdir(TMP_DIR):
        return
    for name in os.listdir(TMP_DIR):
        pid = name.rpartition("-")[2]
        if pid.isdigit() and alive(int(pid)):
            continue
        shutil.rmtree(os.path.join(TMP_DIR, name), ignore_errors=True)


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    remove_stale_tmp()
    if args == ["--selftest"]:
        binary, args = os.path.join(BUILD_DIR, "cnrbench_selftest"), []
    else:
        binary = os.path.join(BUILD_DIR, "cnrbench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
