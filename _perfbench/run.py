#!/usr/bin/env python3
"""Build and run the host-throughput benchmark.

Run from the repository root:

    python3 _perfbench/run.py --workload suite --seed 11 --seconds 30 --trace 0

The benchmark is a Go module (_perfbench/) that imports the simulator from
the repository root. This script builds it into .bench_build/ at the
repository root, keeping every Go cache there too, then replaces itself
with the built binary. Every argument passes through; see
`python3 _perfbench/run.py --help` for the rest (--cpuprofile, --out,
--workers, --digest-seed, --record).
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.path.dirname(here), ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: the last line of stdout is the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
