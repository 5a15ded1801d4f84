#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload matrix-miss --seed 1 --seconds 10 --trace 0

The arguments pass through to the Go program (see README.md). The
binary and every cache or temporary file the Go toolchain writes stay
under .bench_build/ at the repository root. The exit code is the Go
program's, or 1 when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    for key in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            [go, "build", "-o", binary, "."],
            cwd=HERE,
            env=go_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("run.py: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)

    def stop(signum, frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    # Whoever stops this script stops the benchmark with it.
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
