#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go program in this directory is built
from the checkout's sources into .bench_build/ (every Go cache, temporary
and configuration directory lives there too), then run with the given
arguments from the checkout root. Its exit code is this script's exit code;
a failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/config",
        "XDG_CACHE_HOME": "home/cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="-mod=readonly", GOTOOLCHAIN="local", GOWORK="off", GOENV="off", GOPROXY="off",
               # The revision in the report: git may look for a repository
               # at the checkout root, but not in the directories above it.
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return env


def main():
    env = go_env()
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
