#!/usr/bin/env python3
"""Build perfbench from this checkout's source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload maxf-core --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every argument except ``--workload all`` is passed through to the Go
program, whose last line of standard output is the JSON result. ``all``
runs the five workloads one after another, each in its own process, as a
human-readable report. Build outputs, the Go build cache and the
benchmark's state and trace files all stay under ``.bench_build/`` in the
current directory. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["maxf-core", "coordinate-chord", "sweep-matrix", "cluster-tcp", "cluster-lossy"]


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = ""
    env["GOWORK"] = "off"
    env["TMPDIR"] = env["GOTMPDIR"]
    return env


def main(argv):
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # Flush what the build wrote, so its writeback does not compete with
    # the benchmark's own file-system work while it is being timed.
    os.sync()
    out = os.path.join(build, "perfbench-out")
    args = list(argv)
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload")
        rest = args[:i] + args[i + 2:]
        code = 0
        for name in WORKLOADS:
            print("==", name, flush=True)
            code |= subprocess.run([binary, "-out", out, "-workload", name] + rest, env=env).returncode
        return code
    return subprocess.run([binary, "-out", out] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
