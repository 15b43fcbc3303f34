#!/usr/bin/env python3
"""Build and run the djstar live benchmark.

Usage, from the repository root:

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the repository's libraries and the
benchmark binary (Release) under $CARGO_TARGET_DIR/livebench, or
.bench_build/livebench when that variable is unset; later calls only
re-check the build. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. The exit status is the
build's when it fails, otherwise the benchmark's.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "livebench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; return its exit code."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build(out):
    generated = any(os.path.exists(os.path.join(out, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc = run_quiet(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
        if rc != 0:
            return rc
    return run_quiet(["cmake", "--build", out, "--target", "livebench",
                      "-j", "4"])


def main():
    out = build_dir()
    rc = build(out)
    if rc != 0:
        print("livebench: build failed", file=sys.stderr)
        return rc
    binary = os.path.join(out, "livebench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
