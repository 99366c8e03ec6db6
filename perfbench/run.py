#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds two release variants of the
`perfbench` package from source (plain, and with `--features obs`) under
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs:

* `--trace 0`: the plain build; prints the end-to-end metrics.
* `--trace 1`: the plain build first (its throughput is the base of
  `driver.tracing_overhead_frac`; its output goes to standard error), then
  the obs build, which prints the per-layer metrics and the cost ledger.

The last line of standard output is the run's JSON result. The exit code
is non-zero, with no result printed, if a build fails or a run does not
finish in time.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds a run may take once both variants are built.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, variant, features):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        "--target-dir", os.path.join(target_dir, variant),
    ] + features
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(f"building the {variant} variant failed")
    return os.path.join(target_dir, variant, "release", "perfbench")


def first_line_of(cmd, fallback):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return fallback
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else fallback


def run(cmd, deadline):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {RUN_BUDGET_S} s")
    if out.returncode != 0:
        sys.stdout.write(out.stdout)
        fail(f"{' '.join(cmd)} exited with code {out.returncode}")
    return out.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    plain = build(target_dir, "plain", [])
    traced = build(target_dir, "obs", ["--features", "obs"])
    deadline = time.monotonic() + RUN_BUDGET_S

    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--git-rev", first_line_of(["git", "rev-parse", "HEAD"], "n/a (not a git checkout)"),
        "--rustc", first_line_of(["rustc", "--version"], "unknown"),
    ]
    out = run([plain] + common + ["--trace", "0"], deadline)
    if not args.trace:
        sys.stdout.write(out)
        return
    sys.stderr.write(out)
    base = json.loads(out.strip().splitlines()[-1])["metrics"]["throughput_ops_s"]["value"]
    sys.stdout.write(run([traced] + common + ["--trace", "1", "--plain-throughput", repr(base)], deadline))


if __name__ == "__main__":
    main()
