#!/usr/bin/env python3
"""Summarize an smtprof samples file: flat and inclusive shares.

Symbolizes every sampled address with addr2line (one batch process)
and prints, for the simulate phase only (warmup plus measurement,
set-up excluded):

* flat: the function containing the interrupted PC;
* inclusive: every function anywhere on the sampled stack, counted
  once per sample.

By default functions are the outermost (non-inlined) symbol at each
address, so an inlined helper is charged to the function it was
inlined into; --inline charges the innermost inlined function instead
(flat) and counts every function of the inline chain (inclusive).
Return addresses are looked up at address - 1, the call instruction.
Inclusive shares need a binary built with -fno-omit-frame-pointer.

Usage:
    python3 tools/profile_report.py smtprof.samples [--inline]
"""

import argparse
import collections
import subprocess
import sys

# Rows printed per table.
TOP = 30


def read_samples(path):
    exe = None
    samples = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if len(parts) == 2 and parts[0] == "exe":
                    exe = parts[1].strip()
                continue
            fields = line.split()
            if not fields:
                continue
            frames = [None if a == "-" else int(a, 16) for a in fields[1:]]
            samples.append((fields[0], frames))
    if exe is None:
        sys.exit("%s: not an smtprof samples file (no '# exe' line)" % path)
    return exe, samples


def lookup_address(frames):
    """Addresses to symbolize: the PC itself, then call sites."""
    out = []
    for depth, addr in enumerate(frames):
        if addr is None:
            out.append(None)
        else:
            out.append(addr if depth == 0 else addr - 1)
    return out


def symbolize(exe, addrs):
    """Map each address to its inline chain, innermost first."""
    if not addrs:
        return {}
    ordered = sorted(addrs)
    proc = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", exe],
        input="".join("%x\n" % a for a in ordered),
        capture_output=True, text=True, check=True)
    chains = collections.defaultdict(list)
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            i += 1
            continue
        # A (function, file:line) pair; with -i the inline chain runs
        # innermost first.
        chains[current].append(line)
        i += 2
    return {a: chains.get(a) or ["??"] for a in ordered}


def table(title, counts, total):
    print(title)
    print("  %7s %6s  %s" % ("samples", "share", "function"))
    for name, n in counts.most_common(TOP):
        print("  %7d %5.1f%%  %s" % (n, 100.0 * n / total, name))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--inline", action="store_true",
                    help="charge inlined functions, not their callers")
    args = ap.parse_args()

    exe, samples = read_samples(args.samples)
    phases = collections.Counter(phase for phase, _ in samples)
    chosen = [lookup_address(frames) for phase, frames in samples
              if phase == "simulate"]
    print("%s: %d samples (%s); reporting the simulate phase" % (
        args.samples, len(samples),
        ", ".join("%s %d" % kv for kv in sorted(phases.items()))))
    if not chosen:
        return 1
    print("executable: %s" % exe)
    print()

    addrs = {a for frames in chosen for a in frames if a is not None}
    chains = symbolize(exe, addrs)

    def names(a):
        if a is None:
            return ["[outside the executable]"]
        return chains[a] if args.inline else chains[a][-1:]

    flat = collections.Counter(names(frames[0])[0] for frames in chosen)
    inclusive = collections.Counter()
    for frames in chosen:
        # Callers outside the executable (libc's start-up frames) are
        # on every stack and say nothing.
        seen = set(names(frames[0]))
        for a in frames[1:]:
            if a is not None:
                seen.update(names(a))
        inclusive.update(seen)
    total = len(chosen)
    table("flat (function holding the sampled PC)", flat, total)
    table("inclusive (function anywhere on the stack)", inclusive, total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
