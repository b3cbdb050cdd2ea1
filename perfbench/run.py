#!/usr/bin/env python3
"""Build dpipe and the benchmark from source, then run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
.bench_build). The single-workload form prints every metric and, as its
last stdout line, the JSON result. --all runs every workload untraced and
then traced and writes all results to FILE (default
.bench_build/perfbench-results.json).
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["cli_plan", "zipf_mix", "replay_faults"]


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "diffusionpipe", "--bin", "dpipe"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_one(root, target, args):
    work = os.path.join(target, "perfbench-work")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--dpipe", os.path.join(target, "release", "dpipe"), "--work", work] + args
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)


def flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def main(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: run from the root of a dpipe checkout")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target)
    if "--all" not in argv:
        proc = run_one(root, target, argv)
        sys.stdout.write(proc.stdout)
        return proc.returncode
    seed = flag(argv, "--seed", "1")
    seconds = flag(argv, "--seconds", "10")
    out = flag(argv, "--out", os.path.join(target, "perfbench-results.json"))
    results, code = {}, 0
    for trace in ("0", "1"):
        for workload in WORKLOADS:
            proc = run_one(root, target, ["--workload", workload, "--seed", seed,
                                          "--seconds", seconds, "--trace", trace])
            sys.stdout.write(proc.stdout)
            code = code or proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            results.setdefault(workload, {})["traced" if trace == "1" else "untraced"] = result
    with open(out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print("wrote", out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
