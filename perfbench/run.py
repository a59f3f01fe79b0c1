#!/usr/bin/env python3
"""Build and run the benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload sim-qoe --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go build cache, module cache and
binary live under .bench_build/ in the checkout, so nothing is written
outside it. Every argument is passed to the benchmark binary; its exit
status is this script's.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, ".bench_build")
env = dict(os.environ)
env.update({
    "GOCACHE": os.path.join(build, "gocache"),
    "GOMODCACHE": os.path.join(build, "gomodcache"),
    "GOPATH": os.path.join(build, "gopath"),
    "XDG_CONFIG_HOME": os.path.join(build, "config"),
    "GOTMPDIR": os.path.join(build, "tmp"),
    "GOTOOLCHAIN": "local",
    "GOPROXY": "off",
    "GOFLAGS": "",
    "GOWORK": "off",
    "CGO_ENABLED": "0",
})
binary = os.path.join(build, "perfbench")
os.makedirs(env["GOTMPDIR"], exist_ok=True)
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    print("perfbench: build failed", file=sys.stderr)
    sys.exit(built.returncode or 1)
sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=root).returncode)
