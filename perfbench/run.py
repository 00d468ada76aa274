#!/usr/bin/env python3
"""Build and run the two-clock benchmark of the RTNN reproduction.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (its own Cargo workspace, which
depends on the repository's crates by path) in release mode, runs one
workload with telemetry off, checks that the result line names exactly the
metrics `BENCHMARK.json` lists for the chosen mode, and passes the line
through as the last line of standard output. Build output and the
benchmark's diagnostics go to standard error; run artefacts go to
`.bench_out/`. The exit code is nonzero when the build fails, the program
answers wrongly, or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")
    return args


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def check_line(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError as e:
        fail(f"result line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result line has keys {sorted(result)}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        fail(f"result metrics {sorted(got)} differ from BENCHMARK.json")
    for m in want:
        value = got[m["name"]]
        if value.get("unit") != m["unit"] or not isinstance(value.get("value"), (int, float)):
            fail(f"metric {m['name']} is {value}, expected a number in {m['unit']}")


def main():
    spec = load_spec()
    args = parse_args(spec)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # End-to-end numbers are taken with the program's own telemetry and
    # profiler off; structure builds use the pool size the benchmark sets.
    env["RTNN_TELEMETRY"] = "off"
    env["RTNN_PROFILE"] = "off"
    env.pop("RTNN_BUILD_THREADS", None)
    binary = build(env)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit code {done.returncode})")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    check_line(lines[-1], spec, args.trace == 1)
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
