#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the repository root, for example:

    python3 perfbench/run.py --workload nbia_odds --seed 1 --seconds 20 --trace 0

Every argument is passed on to the program, whose last line of standard
output is the JSON result. The Go build cache, temporary files, the binary
and the spans of traced runs live in the build directory ($CARGO_TARGET_DIR,
default .bench_build at the repository root), so nothing is written outside
the checkout. The build fails, and this script exits non-zero without a
result, when the repository's Go sources are not next to this directory.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    for key in ("GOCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    out = os.path.join(build, "perfbench")
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("run.py: building perfbench failed\n")
        return 1
    return subprocess.run([binary, "--out", out] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
