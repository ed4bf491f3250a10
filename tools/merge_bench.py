#!/usr/bin/env python3
"""Merge a resumable-sweep journal into a BENCH_*.json record.

A sweep run with `smtsim --checkpoint-dir DIR <spec>` (or a spec with
"checkpointDir") journals every completed grid point to
DIR/journal_<bench>.jsonl. Normally smtsim itself writes the final
BENCH record when the sweep finishes; this tool builds the same record
offline from the journal alone — e.g. to inspect a partially
completed run, or to recover the record of a run that was killed
after the last point but before the write.

The per-point `results` array is rendered byte-identically to
smtsim's own writer (same key order, same 2-space indentation, same
%.17g float rendering, stats embedded verbatim), so diffing a merged
record against a single-process `smtsim <spec>` record compares equal
on every results[] byte. The timing blocks are derived from journaled
per-point seconds: the original run's wall clock is gone, so
`wallSeconds`/`sweepSeconds` are the journal's summed simulation time
(still shaped to pass tools/check_bench.py).

Usage:
  merge_bench.py ckpt/journal_fig2_single_thread.jsonl
  merge_bench.py --out BENCH_x.json --expect-complete ckpt/journal_x.jsonl
"""

import argparse
import json
import sys

SCHEMA = "smtfetch-journal-v1"

# (wire key, describe() renderer) in RunOverrides::writeJson order.
OVERRIDE_FIELDS = (
    ("ftqEntries", lambda v: f"ftq={v}"),
    ("fetchBufferSize", lambda v: f"fbuf={v}"),
    ("robEntries", lambda v: f"rob={v}"),
    ("longLoadPolicy", lambda v: f"llp={v}"),
    ("longLoadThreshold", lambda v: f"llthresh={v}"),
    ("predictorShift", lambda v: f"predshift={v}"),
)


class MergeFailure(Exception):
    pass


def jesc(s):
    """smt::jsonEscape, byte for byte."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def jnum(v):
    """JsonWriter::value(double): %.17g, non-finite becomes null."""
    if isinstance(v, bool):
        raise MergeFailure(f"expected a number, got {v!r}")
    if isinstance(v, int):
        return str(v)
    if v != v or v in (float("inf"), float("-inf")):
        return "null"
    return "%.17g" % v


class Writer:
    """smt::JsonWriter with indent_step=2, byte for byte."""

    def __init__(self):
        self.parts = []
        self.stack = []  # (is_array, items)
        self.pending_key = False

    def _newline(self):
        self.parts.append("\n" + "  " * len(self.stack))

    def _pre_value(self):
        if self.pending_key:
            self.pending_key = False
            return
        if self.stack:
            if self.stack[-1][1] > 0:
                self.parts.append(",")
            self._newline()
            self.stack[-1][1] += 1

    def begin_object(self):
        self._pre_value()
        self.parts.append("{")
        self.stack.append([False, 0])

    def end_object(self):
        had = self.stack[-1][1] > 0
        self.stack.pop()
        if had:
            self._newline()
        self.parts.append("}")

    def begin_array(self):
        self._pre_value()
        self.parts.append("[")
        self.stack.append([True, 0])

    def end_array(self):
        had = self.stack[-1][1] > 0
        self.stack.pop()
        if had:
            self._newline()
        self.parts.append("]")

    def key(self, k):
        if self.stack[-1][1] > 0:
            self.parts.append(",")
        self._newline()
        self.stack[-1][1] += 1
        self.parts.append(f'"{jesc(k)}": ')
        self.pending_key = True

    def raw(self, text):
        self._pre_value()
        self.parts.append(text)

    def string(self, v):
        self.raw(f'"{jesc(v)}"')

    def number(self, v):
        self.raw(jnum(v))

    def field(self, k, v):
        self.key(k)
        if isinstance(v, str):
            self.string(v)
        else:
            self.number(v)

    def text(self):
        return "".join(self.parts)


def describe_overrides(ov):
    return " ".join(fmt(ov[key]) for key, fmt in OVERRIDE_FIELDS if key in ov)


def write_result(jw, r):
    """sim/result_codec.cc writeResultJson from a wire-format result."""
    jw.begin_object()
    jw.field("workload", r["workload"])
    jw.field("engine", r["engine"])
    jw.field("policy", r["policy"])
    jw.field("fetchThreads", r["fetchThreads"])
    jw.field("fetchWidth", r["fetchWidth"])
    jw.field(
        "policyString",
        f'{r["policy"]}.{r["fetchThreads"]}.{r["fetchWidth"]}',
    )
    overrides = r.get("overrides")
    if overrides:
        jw.field("variant", describe_overrides(overrides))
        jw.key("overrides")
        jw.begin_object()
        for key, _ in OVERRIDE_FIELDS:
            if key in overrides:
                jw.field(key, overrides[key])
        jw.end_object()
    jw.field("warmupCycles", r["warmupCycles"])
    jw.field("measureCycles", r["measureCycles"])
    jw.field("ipfc", r["ipfc"])
    jw.field("ipc", r["ipc"])
    jw.key("stats")
    jw.raw(r["statsJson"] if r["statsJson"] else "{}")
    jw.end_object()


def load_journal(path):
    with open(path) as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MergeFailure("journal is empty")
    header = json.loads(lines[0])
    if header.get("schema") != SCHEMA:
        raise MergeFailure(
            f"journal schema is {header.get('schema')!r}, expected {SCHEMA!r}"
        )
    entries = {}
    for n, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if n == len(lines):
                print(
                    f"note: dropping torn final journal line {n}",
                    file=sys.stderr,
                )
                continue
            raise MergeFailure(f"journal line {n} is not valid JSON")
        idx = entry["point"]
        if not isinstance(idx, int) or idx < 0 or idx >= header["points"]:
            raise MergeFailure(
                f"journal line {n}: point index {idx!r} outside the "
                f"{header['points']}-point grid"
            )
        entries.setdefault(idx, entry["outcome"])  # first write wins
    return header, entries


def merge(header, entries):
    jw = Writer()
    jw.begin_object()
    jw.field("schema", "smtfetch-bench-v1")
    jw.field("bench", header["bench"])

    outcomes = [entries[i] for i in sorted(entries)]
    results = [o["result"] for o in outcomes]
    warmup_s = sum(o["warmupSeconds"] for o in outcomes)
    measure_s = sum(o["measureSeconds"] for o in outcomes)
    # The coordinator's wall clock did not survive the kill; the
    # journal's summed simulation time is the best available stand-in.
    wall_s = warmup_s + measure_s

    sim_cycles = sum(r["measureCycles"] for r in results)
    insts = sum(r["instsCommitted"] for r in results)
    skipped = sum(r["cyclesSkipped"] for r in results)
    sleeps = sum(r["sleepEvents"] for r in results)
    max_span = max((r["maxSkipSpan"] for r in results), default=0)

    jw.key("throughput")
    jw.begin_object()
    jw.field("wallSeconds", float(wall_s))
    jw.field("measureSeconds", float(measure_s))
    jw.field("simulatedCycles", sim_cycles)
    jw.field("committedInsts", insts)
    jw.field("mcyclesPerSecond", sim_cycles / 1e6 / measure_s if measure_s > 0 else 0.0)
    jw.field("mips", insts / 1e6 / measure_s if measure_s > 0 else 0.0)
    jw.field("cyclesSkipped", skipped)
    jw.field("sleepEvents", sleeps)
    jw.field("maxSkipSpan", max_span)
    jw.end_object()

    served = [o["served"] for o in outcomes]
    warmups = served.count("warmup")
    restored = served.count("restored")
    direct = served.count("direct")
    disk_hits = sum(1 for o in outcomes if o.get("diskHit"))
    avg_warmup = warmup_s / warmups if warmups > 0 else 0.0
    baseline = wall_s + avg_warmup * restored

    jw.key("warmupReuse")
    jw.begin_object()
    jw.field("gridPoints", len(results))
    jw.field("warmupGroups", header["warmupGroups"])
    jw.field("warmupRuns", warmups)
    jw.field("restoredRuns", restored)
    jw.field("directRuns", direct)
    jw.field("cacheHits", restored - disk_hits)
    jw.field("cacheDiskHits", disk_hits)
    jw.field("cacheEvictions", 0)
    jw.field("warmupSeconds", float(warmup_s))
    jw.field("sweepSeconds", float(wall_s))
    jw.field("estimatedBaselineSeconds", float(baseline))
    jw.field("estimatedSpeedup", baseline / wall_s if wall_s > 0 else 1.0)
    jw.end_object()

    jw.key("results")
    jw.begin_array()
    for r in results:
        write_result(jw, r)
    jw.end_array()
    jw.end_object()
    return jw.text() + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("journal", help="journal_<bench>.jsonl to merge")
    parser.add_argument(
        "--out",
        help="output record path (default: BENCH_<bench>.json in the "
        "working directory)",
    )
    parser.add_argument(
        "--expect-complete",
        action="store_true",
        help="fail unless every grid point of the journaled request "
        "is present (a finished sweep)",
    )
    args = parser.parse_args()

    try:
        header, entries = load_journal(args.journal)
        missing = header["points"] - len(entries)
        if missing and args.expect_complete:
            raise MergeFailure(
                f"journal covers {len(entries)} of {header['points']} "
                f"points ({missing} missing) — resume the sweep first"
            )
        if missing:
            print(
                f"note: partial journal, merging {len(entries)} of "
                f"{header['points']} points",
                file=sys.stderr,
            )
        text = merge(header, entries)
    except (MergeFailure, OSError, KeyError, TypeError, ValueError) as e:
        print(f"FAIL {args.journal}: {e}", file=sys.stderr)
        return 1

    out = args.out or f"BENCH_{header['bench']}.json"
    with open(out, "w") as f:
        f.write(text)
    print(f"wrote {out}: {len(entries)} results from {args.journal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
