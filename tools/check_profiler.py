#!/usr/bin/env python3
"""Smoke test of the sampling profiler: smtprof then profile_report.py.

Runs smtprof on a tiny 2_ILP spec (three engines, about 0.3 s of
simulation), pipes its samples file through tools/profile_report.py
and checks the report:

* it counts simulate-phase samples, and more than zero of them;
* most samples in the flat table are charged to simulator code (a
  name holding smt::), so the executable path, the load-bias-relative
  addresses and addr2line agree (misread addresses land on ?? or on
  arbitrary functions);
* with --expect-stacks (a build with frame pointers), main is on the
  stack of most simulate-phase samples, so the frame-pointer walk
  reaches the outermost caller.

Usage:
    python3 tools/check_profiler.py --smtprof build/smtprof [--expect-stacks]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

SPEC = {
    "name": "profiler_smoke",
    "seed": 1,
    "warmupCycles": 2000,
    "measureCycles": 100000,
    "workloads": ["2_ILP"],
    "policies": ["2.8"],
    "engines": ["gshare+BTB", "gskew+FTB", "stream"],
}


def table_rows(report, title):
    """(samples, function) rows of the table whose title starts with
    `title`."""
    rows = []
    inside = False
    for line in report.splitlines():
        if line.startswith(title):
            inside = True
            continue
        if not inside:
            continue
        m = re.match(r"\s+(\d+)\s+[\d.]+%\s+(.*)$", line)
        if m:
            rows.append((int(m.group(1)), m.group(2)))
        elif not line.strip():
            break
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smtprof", required=True)
    ap.add_argument("--expect-stacks", action="store_true",
                    help="the build keeps frame pointers")
    args = ap.parse_args()
    report_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "profile_report.py")

    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        samples = os.path.join(tmp, "smoke.samples")
        with open(spec, "w") as f:
            json.dump(SPEC, f)
        subprocess.run([os.path.abspath(args.smtprof), "--out", samples,
                        spec], check=True)
        report = subprocess.run([sys.executable, report_py, samples],
                                capture_output=True, text=True)
    print(report.stdout, end="")
    failures = []
    if report.returncode != 0:
        failures.append("profile_report.py exited with %d: %s" %
                        (report.returncode, report.stderr.strip()))

    m = re.search(r"\bsimulate (\d+)\b", report.stdout)
    simulate = int(m.group(1)) if m else 0
    if simulate == 0:
        failures.append("no simulate-phase samples")

    flat = table_rows(report.stdout, "flat")
    listed = sum(n for n, _ in flat)
    in_simulator = sum(n for n, name in flat if "smt::" in name)
    if 2 * in_simulator <= listed:
        failures.append("the flat table charges %d of its %d samples to "
                        "simulator code" % (in_simulator, listed))

    if args.expect_stacks:
        inclusive = dict((name, n) for n, name in
                         table_rows(report.stdout, "inclusive"))
        on_stack = inclusive.get("main", 0)
        if simulate == 0 or 2 * on_stack <= simulate:
            failures.append("main is on %d of %d simulate-phase stacks; "
                            "the frame-pointer walk stops short" %
                            (on_stack, simulate))

    for f in failures:
        print("FAIL: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
