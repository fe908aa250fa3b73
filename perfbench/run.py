#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-sweep --seed 1 --seconds 20 --trace 0

Everything the Go toolchain writes (build cache, temporary files,
binaries) stays under .bench_build in the checkout. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero without a result when a build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    for d in (bindir, os.path.join(build, "tmp"), os.path.join(build, "config")):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    steps = [
        (root, ["go", "build", "-o", os.path.join(bindir, "bsord"), "./cmd/bsord"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(bindir, "perfbench")
    sys.stdout.flush()
    os.execve(bench, [bench] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
