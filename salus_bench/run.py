#!/usr/bin/env python3
"""Build salus_bench from source, then run it with the given arguments.

Usage, from the root of a checkout:

    python3 salus_bench/run.py --workload W --seed N --seconds S --trace 0|1

The benchmark is configured and built into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only re-check that the build is
up to date. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, printing no result, when
the simulator sources are missing or the build fails.
"""

import os
import subprocess
import sys

BUILD_TYPE = "RelWithDebInfo"


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("salus_bench: simulator sources not found next to "
              "salus_bench/", file=sys.stderr)
        return 1
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build, "--target", "salus_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            print("salus_bench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "salus_bench")] +
                          sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
