#!/usr/bin/env python3
"""Build and run the MERGED-trace Flash-Lite benchmark.

From the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/bench.exe with dune (release profile,
build directory .bench_build), runs one workload, relays its output and
checks that the last line is the result object BENCHMARK.json promises:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run also writes its spans under .bench_build/spans.
The second form builds and runs the determinism self-check.

Exits non-zero, without printing a result, when the source tree is
missing, the build fails, or the benchmark fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build(name):
    """Build perfbench/<name>.exe and return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no iolite source tree (dune-project, lib/) at %s" % ROOT)
    target = "./perfbench/%s.exe" % name
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", target]
    try:
        # The shared dune cache would write outside the checkout.
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("build failed")
    return os.path.join(BUILD, "default", "perfbench", name + ".exe")


def run(cmd):
    """Run to completion within the time limit; return (code, stdout)."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("benchmark did not complete: %s" % e)
    return p.returncode, p.stdout


def check_result(line, trace):
    """The result must name exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError:
        die("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result has keys %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        die("metrics %s differ from BENCHMARK.json %s"
            % (sorted(got.items()), sorted(wanted.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    if args.selfcheck:
        code, out = run([build("selfcheck")])
        sys.stdout.write(out)
        sys.exit(code)
    if not args.workload:
        ap.error("--workload is required")

    exe = build("bench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run(cmd)
    lines = out.rstrip("\n").split("\n")
    if code != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(out)
        die("benchmark exited with code %d" % code)
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
