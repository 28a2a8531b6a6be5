#!/usr/bin/env python3
"""Build and run the accruald end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady-beats --seed 1 --seconds 15 --trace 0

The Go program in this directory is built into .bench_build/ (with its
build cache there too), then run with the same arguments from the
repository root. Its exit code is passed on; nothing is printed to
standard output unless the build succeeds.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_env = dict(os.environ, TMPDIR=tmp)
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
