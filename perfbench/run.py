#!/usr/bin/env python3
"""The scvad benchmark: build it, run one workload, or compare two result files.

Run one workload (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/scvbench.exe with dune into .bench_build/ and runs it.
Its last line of output is the result object; the line before it is a
record of the run (settings, every metric, every sample).  Append the
output of several runs to a file to compare it with another:

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

prints, for each workload and metric, both medians and quartiles, and
flags a median that moved by more than the metric's bound in
BENCHMARK.json, or, for a metric without a bound, by more than the old
runs' own spread (the distance between their quartiles, as a share of
their median).

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/scvbench.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def private_env():
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a checkout of the scvad repository"
                 % os.path.join(ROOT, need))
    # No shared dune cache and a private TMPDIR: the build reads and
    # writes only inside the checkout.
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", TARGET]
    try:
        # Build output goes to stderr: stdout carries only the result.
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              env=private_env()).returncode
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0:
        fail("build failed (%s)" % " ".join(cmd))
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "scvbench.exe")


def run(args):
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    return subprocess.run(cmd, cwd=ROOT, env=private_env()).returncode


def records(path):
    """Every run record in a file of captured benchmark output."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith('{"record"'):
                continue
            try:
                out.append(json.loads(line)["record"])
            except (ValueError, KeyError):
                pass
    return out


def summary(values):
    """Median and the first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = records(old_path), records(new_path)
    if not old or not new:
        fail("no run records in %s" % (old_path if not old else new_path))
    keys = sorted({(r["workload"], r["trace"]) for r in old + new})
    regressions = 0
    fmt = "%-20s %-30s %12s %25s %12s %25s %8s  %s"
    print(fmt % ("workload", "metric", "old median", "old q1..q3",
                 "new median", "new q1..q3", "change", "verdict"))
    for workload, trace in keys:
        o = [r for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        names = sorted({m for r in o + n for m in r["metrics"]})
        label = workload + (" (traced)" if trace else "")
        for name in names:
            ov = [r["metrics"][name]["value"] for r in o if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            unit = (o + n)[0]["metrics"].get(name, {}).get("unit", "")
            if not ov or not nv:
                print(fmt % (label, name, "-", "", "-", "", "", "missing on one side"))
                continue
            om, oq1, oq3 = summary(ov)
            nm, nq1, nq3 = summary(nv)
            change = (nm - om) / om if om else 0.0
            worse = change if lower_better.get(name, True) else -change
            if name in bounds:
                band, what = bounds[name]["bound"], "bound"
            else:
                band, what = ((oq3 - oq1) / om if om else 0.0), "old spread"
            if worse > band:
                verdict = "WORSE beyond %s %.3f" % (what, band)
                if name in bounds:
                    regressions += 1
            elif -worse > band:
                verdict = "better beyond %s %.3f" % (what, band)
            else:
                verdict = "within %s %.3f" % (what, band)
            print(fmt % (label, name + " [" + unit + "]", "%.6g" % om,
                         "%.6g..%.6g" % (oq1, oq3), "%.6g" % nm,
                         "%.6g..%.6g" % (nq1, nq3), "%+.1f%%" % (100 * change),
                         verdict))
    print("%d end-to-end metric(s) worse beyond their bound" % regressions)
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="corrupt one reference result: the run must fail")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("need --workload, --seed and --seconds (or --compare OLD NEW)")
    sys.exit(run(args))


if __name__ == "__main__":
    main()
