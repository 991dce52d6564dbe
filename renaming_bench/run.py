#!/usr/bin/env python3
"""Builds renaming_bench from source and runs one workload.

Run from the root of the repository:

    python3 renaming_bench/run.py --workload crash-ff --seed 9001 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if it is set, else to .bench_build,
both relative to the repository root; the first call configures and builds
(Release, invariants and telemetry on), later calls rebuild only what
changed. Every argument is passed to the renaming_bench binary, whose last
stdout line is the JSON result. Exits non-zero without a result when the
repository sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    # Compiler temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "renaming_bench", "-j", "4"],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "renaming_bench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: repository sources not found under %s" % ROOT,
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("run.py: build failed: %s" % err, file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
