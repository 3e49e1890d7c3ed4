#!/usr/bin/env python3
"""Build the orprof CLI and the benchmark runner from source, then run one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload leap-replay --seed 1 --seconds 24 --trace 0

`--workload all` runs every workload listed in BENCHMARK.json in turn.
Build output goes to stderr; the runner's standard output (ending in one
JSON result line) is passed through unchanged. Any build failure exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail("build failed: cargo " + " ".join(args))


def main():
    for needed in ("Cargo.toml", os.path.join("src", "bin", "orprof-cli.rs")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found; run from the root of an orprof checkout")
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(["--bin", "orprof-cli"])
    build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")])
    runner = os.path.join(target, "release", "perfbench")
    cli = os.path.join(target, "release", "orprof-cli")

    def run(args):
        return subprocess.run([runner, "--cli", cli, *args], cwd=ROOT).returncode

    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] != ["all"]:
        sys.exit(run(args))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    code = 0
    for name in names:
        print(f"== {name}", flush=True)
        rc = run(args[:at] + [name] + args[at + 1:])
        code = code or rc
    sys.exit(code)

if __name__ == "__main__":
    main()
