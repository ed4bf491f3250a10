#!/usr/bin/env python3
"""smtfetch host-speed benchmark.

Builds the simulator and the perfbench harness from this checkout,
runs one workload for a host-time budget, checks every simulated
result, and prints the metrics. Run from the repository root:

    python3 perfbench/run.py --workload ilp_busy --seed 1 --seconds 20 \\
        --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). See perfbench/README.md
for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")

# The paper's figures, re-run the way an architect re-runs them.
GOLDEN_SPECS = ["fig2_single_thread", "fig4_two_threads",
                "fig_tlp_scaling", "ablation_engines"]

# Each synthetic workload runs `ensemble` one-point specs, spec k
# with program seed seed * ensemble + k and the k-th value (round
# robin) of the workload's varied axis. Across program seeds the host
# time of one point varies with a coefficient of variation of 35-55%
# and its IPC by more: one 2_MEM program in a few dozen runs at 3-4x
# the mean IPC. With 48 programs the ensemble IPC still moves by +-10%
# between seeds, with 96 by +-6%; hence 192, with short windows to
# afford them. Within a run, per-point timing noise averages out over
# that many points, so one pass already gives steady totals.
WORKLOADS = {
    # Pipeline busy most cycles: core stages, front end and predictors
    # do the host work, the cycle-skip gate little of it.
    "ilp_busy": {
        "ensemble": 192,
        "spec": {"warmupCycles": 4000, "measureCycles": 20000,
                 "workloads": ["2_ILP"], "policies": ["2.8"]},
        "vary": [{"engines": [e]}
                 for e in ("gshare+BTB", "gskew+FTB", "stream")],
    },
    # Memory-bound: most cycles quiescent and skipped; the skip gate,
    # memory hierarchy and long-load policies (flush drives the
    # squash/recovery path) do the host work.
    "mem_stall": {
        "ensemble": 192,
        "spec": {"warmupCycles": 5000, "measureCycles": 25000,
                 "workloads": ["2_MEM"], "engines": ["stream"],
                 "policies": ["2.8"]},
        "vary": [{"overrides": {"longLoadPolicy": [p]}}
                 for p in ("none", "stall", "flush")],
    },
    "golden_sweep": None,
}

END_TO_END_UNITS = {
    "sim_mcps": "Mcycle/s",
    "sim_mips": "Minst/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.ns_per_ticked_cycle": "ns",
    "core.ns_per_cycle": "ns",
    "core.quiescent_ns": "ns",
    "core.skip_ratio": "ratio",
    "core.ipc": "inst/cycle",
    "core.ipfc": "inst/cycle",
    "core.commit_per_fetch": "ratio",
    "core.wrong_path_ratio": "ratio",
    "core.fetch_buffer_full_ratio": "ratio",
    "workload.ns_per_record": "ns",
    "workload.image_build_ms": "ms",
    "bpred.ns_per_predict": "ns",
    "bpred.mispredict_rate": "ratio",
    "bpred.table_hit_ratio": "ratio",
    "bpred.recoveries": "count",
    "mem.ns_per_dcache_access": "ns",
    "mem.l1d.miss_rate": "ratio",
    "mem.l2.miss_rate": "ratio",
    "mem.dtlb.miss_rate": "ratio",
    "mem.l1d.mshr_full_stalls": "count",
    "sim.setup_ms": "ms",
    "sim.spec_parse_ms": "ms",
    "sim.warmup_s": "s",
    "sim.measure_s": "s",
    "sim.checkpoint_save_ms": "ms",
    "sim.checkpoint_restore_ms": "ms",
    "sim.snapshot_kb": "KiB",
    "sim.warmup_runs": "count",
    "sim.restored_runs": "count",
    "sim.emit_ms": "ms",
    "util.stats_json_ms": "ms",
    "trace.overhead_pct": "%",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build

def build():
    """Configure (once) and build the harness; return its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DSMTFETCH_SANITIZE=OFF", "-DSMTFETCH_COVERAGE=OFF"],
                stdout=out, stderr=subprocess.STDOUT, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
             "-j", jobs],
            stdout=out, stderr=subprocess.STDOUT, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


# --------------------------------------------------------------- inputs

def make_inputs(workload, seed):
    """Write the workload's specs for this seed; return their paths."""
    if workload == "golden_sweep":
        # The committed figure specs at their golden seed 0, so every
        # run is checked bit for bit against tests/golden; the run seed
        # orders the specs and points handed to the scheduler.
        return [os.path.join(ROOT, "configs", f"{name}.json")
                for name in GOLDEN_SPECS]
    input_dir = os.path.join(BUILD_DIR, "inputs")
    os.makedirs(input_dir, exist_ok=True)
    w = WORKLOADS[workload]
    paths = []
    for k in range(w["ensemble"]):
        spec = {"name": f"{workload}_{seed}_{k}",
                "seed": seed * w["ensemble"] + k}
        spec.update(w["spec"])
        spec.update(w["vary"][k % len(w["vary"])])
        path = os.path.join(input_dir, f"{workload}_{seed}_{k}.json")
        with open(path, "w") as f:
            json.dump(spec, f, indent=1)
        paths.append(path)
    return paths


# --------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else float("nan")


def ratio(num, den):
    return num / den if den else 0.0


def point_runs(doc, traced):
    """Point runs of direct passes with this traced flag."""
    return [p for r in doc["runs"] if r["pass"] == "direct"
            for p in r["points"] if p["traced"] == traced]


def per_point_median(runs, field):
    """{point id: median of `field` over its runs}."""
    values = {}
    for p in runs:
        values.setdefault(p["id"], []).append(p[field])
    return {k: median(v) for k, v in values.items()}


def throughput(doc, traced, ids=None):
    """(sim_mcps, sim_mips, wall_s) over the runs with this traced flag
    (direct mode: of the points in `ids` when given).

    direct: per point, the median over its runs of warmup+measure
    thread CPU and wall time, summed over points; sweep: per
    iteration, cold plus warm pass on the process CPU clock; medians
    over iterations."""
    runs = [p for p in point_runs(doc, traced)
            if ids is None or p["id"] in ids]
    if runs:
        cycles = {p["id"]: p["cycles"] for p in runs}
        insts = {p["id"]: p["committed"] for p in runs}
        cpu = sum(per_point_median(runs, "cpu_s").values())
        wall = sum(per_point_median(runs, "wall_s").values())
        return (sum(cycles.values()) / cpu / 1e6,
                sum(insts.values()) / cpu / 1e6, wall)
    per_iter = {}
    for r in doc["runs"]:
        if r["pass"] in ("cold", "warm") and r["points"] and \
                r["points"][0]["traced"] == traced:
            it = per_iter.setdefault(r["iteration"], [0, 0, 0.0, 0.0])
            it[0] += r["timing"]["simulatedCycles"]
            it[1] += r["timing"]["committedInsts"]
            it[2] += r["cpu_s"]
            it[3] += r["wall_s"]
    its = list(per_iter.values())
    return (median([c / cpu / 1e6 for c, _, cpu, _ in its]),
            median([i / cpu / 1e6 for _, i, cpu, _ in its]),
            median([w for _, _, _, w in its]))


def setup_seconds(doc):
    """(spec parse, Simulator construction) set-up time.

    sweep: medians over the repeated set-ups; direct: the median
    parse of the passes plus, per point, the median construction time
    over its untraced runs, summed."""
    parse = median([s["parse_s"] for s in doc["setup"]])
    runs = point_runs(doc, False)
    if runs:
        return parse, sum(per_point_median(runs, "construct_s").values())
    return parse, median([s["construct_s"] for s in doc["setup"]])


def end_to_end(doc):
    mcps, mips, wall = throughput(doc, traced=False)
    return {
        "sim_mcps": mcps,
        "sim_mips": mips,
        "wall_s": wall,
        "setup_s": sum(setup_seconds(doc)),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }


def stat_sums(doc):
    """Sum every scalar stat over all points (first runs)."""
    sums = {}
    for entry in doc["points"]:
        if entry is None:
            continue
        for k, v in entry["result"]["stats"].items():
            if isinstance(v, (int, float)):
                sums[k] = sums.get(k, 0) + v
    return sums


def span_stats(spans, selected=None):
    """Per span name over the selected span indices (default all):
    calls, cpu, wall, self wall (wall minus the wall of direct
    children) and work."""
    children_wall = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            children_wall[s["parent"]] += s["w1"] - s["w0"]
    table = {}
    for i in range(len(spans)) if selected is None else selected:
        s = spans[i]
        t = table.setdefault(s["name"], {"calls": 0, "cpu": 0.0,
                                         "wall": 0.0, "self": 0.0,
                                         "work": 0.0})
        wall = s["w1"] - s["w0"]
        t["calls"] += 1
        t["cpu"] += s["c1"] - s["c0"]
        t["wall"] += wall
        t["self"] += wall - children_wall[i]
        t["work"] += s["work"]
    return table


def cpu(span):
    return span["c1"] - span["c0"]


def per_iteration(spans, name, value=cpu):
    """Median over iterations of the per-iteration sum of value(span)
    over the spans called `name`."""
    sums = {}
    for s in spans:
        if s["name"] == name:
            sums[s["iteration"]] = sums.get(s["iteration"], 0) + value(s)
    return median(list(sums.values())) if sums else 0.0


def per_layer(doc):
    spans = doc["spans"]
    # Top-level ancestor of each span: "setup", "replay" or a timed
    # iteration's own span.
    root = []
    for s in spans:
        root.append(root[s["parent"]] if s["parent"] >= 0 else s["name"])
    replay_ids = [i for i, r in enumerate(root) if r == "replay"]
    timed_ids = [i for i, r in enumerate(root)
                 if r not in ("replay", "setup")]
    replay = [spans[i] for i in replay_ids]
    timed = [spans[i] for i in timed_ids]
    tab = span_stats(spans, timed_ids)
    rep = span_stats(spans, replay_ids)
    sums = stat_sums(doc)

    def per_work(table, *names):
        """CPU per unit of work over the named spans."""
        return ratio(sum(table.get(n, {}).get("cpu", 0.0) for n in names),
                     sum(table.get(n, {}).get("work", 0.0) for n in names))

    def per_call(name, key="cpu"):
        """Mean `key` per call of the named timed span."""
        t = tab.get(name, {})
        return ratio(t.get(key, 0.0), t.get("calls", 0))

    cycles_measured = sum(
        doc["points"][s["point"]]["result"]["stats"]["sim.cycles"]
        for s in timed if s["name"] == "sim.measure")
    sweep = [r for r in doc["runs"] if r["pass"] in ("cold", "warm")]
    m = {
        "core.ns_per_ticked_cycle": 1e9 * per_work(tab, "sim.measure"),
        "core.ns_per_cycle":
            1e9 * ratio(tab.get("sim.measure", {}).get("cpu", 0.0),
                        cycles_measured),
        "core.quiescent_ns": 1e9 * per_work(tab, "core.quiescent"),
        "core.skip_ratio": ratio(sums["sim.cycleSkip.cyclesSkipped"],
                                 sums["sim.cycles"]),
        "core.ipc": ratio(sums["commit.insts"], sums["sim.cycles"]),
        "core.ipfc": ratio(sums["fetch.insts"], sums["fetch.cycles"]),
        "core.commit_per_fetch": ratio(sums["commit.insts"],
                                       sums["fetch.insts"]),
        "core.wrong_path_ratio": ratio(sums["fetch.wrongPathInsts"],
                                       sums["fetch.insts"]),
        "core.fetch_buffer_full_ratio": ratio(sums["fetch.bufferFullCycles"],
                                              sums["sim.cycles"]),
        "workload.ns_per_record": 1e9 * per_work(rep, "workload.replay"),
        "workload.image_build_ms":
            1e3 * per_iteration(replay, "workload.build_image"),
        "bpred.ns_per_predict":
            1e9 * per_work(rep, "bpred.gshare", "bpred.gskew",
                           "bpred.stream"),
        "bpred.mispredict_rate": ratio(sums["writeback.mispredictsResolved"],
                                       sums["commit.ctis"]),
        "bpred.table_hit_ratio": ratio(sums["engine.tableHits"],
                                       sums["engine.blockPredictions"]),
        "bpred.recoveries": sums["engine.recoveries"],
        "mem.ns_per_dcache_access": 1e9 * per_work(rep, "mem.dcache_replay"),
        "mem.l1d.miss_rate": ratio(sums["mem.l1d.misses"],
                                   sums["mem.l1d.accesses"]),
        "mem.l2.miss_rate": ratio(sums["mem.l2.misses"],
                                  sums["mem.l2.accesses"]),
        "mem.dtlb.miss_rate": ratio(sums["mem.dtlb.misses"],
                                    sums["mem.dtlb.accesses"]),
        "mem.l1d.mshr_full_stalls": sums["mem.l1d.mshrFullStalls"],
        "sim.setup_ms": 1e3 * setup_seconds(doc)[1],
        "sim.spec_parse_ms": 1e3 * setup_seconds(doc)[0],
        "sim.checkpoint_save_ms": 1e3 * per_call("sim.checkpoint_save"),
        "sim.checkpoint_restore_ms":
            1e3 * per_call("sim.checkpoint_restore"),
        "sim.snapshot_kb": per_call("sim.checkpoint_save", "work") / 1024,
        "sim.emit_ms": 1e3 * per_iteration(timed, "sim.emit"),
        "util.stats_json_ms": 1e3 * per_call("util.stats_json"),
    }
    if sweep:
        # The windows run on scheduler threads: the executor's own
        # per-point clocks are the only split of a pass available.
        per_it = {}
        for r in sweep:
            it = per_it.setdefault(r["iteration"], [0.0, 0.0, 0, 0])
            t = r["timing"]
            it[0] += t["warmupSeconds"]
            it[1] += t["measureSeconds"]
            it[2] += t["warmupRuns"]
            it[3] += t["restoredRuns"]
        its = list(per_it.values())
        m["sim.warmup_s"] = median([i[0] for i in its])
        m["sim.measure_s"] = median([i[1] for i in its])
        m["sim.warmup_runs"] = median([i[2] for i in its])
        m["sim.restored_runs"] = median([i[3] for i in its])
    else:
        m["sim.warmup_s"] = per_iteration(timed, "sim.warmup")
        m["sim.measure_s"] = per_iteration(timed, "sim.measure")
        m["sim.warmup_runs"] = per_iteration(timed, "sim.warmup",
                                             lambda s: 1)
        m["sim.restored_runs"] = per_iteration(
            timed, "sim.checkpoint_restore", lambda s: 1)
    twins = {p["id"] for p in point_runs(doc, True)} or None
    plain, _, _ = throughput(doc, traced=False, ids=twins)
    traced, _, _ = throughput(doc, traced=True)
    m["trace.overhead_pct"] = 100.0 * (plain / traced - 1.0)
    return m, span_stats(spans)


# A point whose simulation panics takes the harness process down with
# it. In direct mode the harness announces each point on stderr before
# running it, so the culprit is known: it is recorded as a failed point
# and the harness reruns without it, at most this many times.
MAX_CRASHES = 4


def run_harness(cmd, mode):
    """Run the harness; return {point id: message} of panicked points."""
    crashed = {}
    while True:
        skips = [a for pid in sorted(crashed) for a in ("--skip", str(pid))]
        proc = subprocess.run(cmd + skips, stderr=subprocess.PIPE, text=True)
        if proc.returncode == 0:
            return crashed
        lines = proc.stderr.splitlines()
        announced = [ln for ln in lines if ln.startswith("perfbench: point ")]
        other = [ln for ln in lines if not ln.startswith("perfbench: point ")]
        log("\n".join(other[-20:]))
        pid = int(announced[-1].split()[-1]) if announced else None
        if mode != "direct" or pid is None or pid in crashed or \
                len(crashed) >= MAX_CRASHES:
            raise subprocess.CalledProcessError(proc.returncode, cmd[0])
        crashed[pid] = (other[-1] if other else
                        f"harness died with status {proc.returncode}")


# --------------------------------------------------------------- record

def fingerprint(doc, seed):
    """The harness's build fingerprint plus host, commit and method."""
    fp = dict(doc["fingerprint"])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, env=env)
    fp.update({
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "gitCommit": git.stdout.strip() if git.returncode == 0
        else "unknown",
        "seed": seed,
        "method": "thread/process CPU clocks; medians over repeated "
                  "iterations; set-up excluded from sim_mcps",
    })
    return fp


def digest_file(binary, specs, workload, seed):
    """Where the stats digests of this build on these inputs live."""
    h = hashlib.sha256()
    for path in [binary] + specs:
        with open(path, "rb") as f:
            h.update(f.read())
    d = os.path.join(BUILD_DIR, "digests")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{workload}-{seed}-{h.hexdigest()[:16]}.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**48:
        ap.error("--seed must be in [0, 2^48)")

    binary = build()
    specs = make_inputs(args.workload, args.seed)
    mode = "sweep" if args.workload == "golden_sweep" else "direct"
    out = os.path.join(
        BUILD_DIR, f"run-{args.workload}-{args.seed}-{args.trace}.json")
    cmd = [binary, "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out,
           "--order-seed", str(args.seed)]
    for s in specs:
        cmd += ["--spec", s]
    crashed = run_harness(cmd, mode)
    with open(out) as f:
        doc = json.load(f)

    pinned = GOLDEN_SPECS if args.workload == "golden_sweep" else []
    goldens = checks.load_goldens_for(
        specs, os.path.join(ROOT, "tests", "golden"), pinned)
    dfile = digest_file(binary, specs, args.workload, args.seed)
    reference = {}
    if os.path.exists(dfile):
        with open(dfile) as f:
            reference = {int(k): v for k, v in json.load(f).items()}
    attempted, failures = checks.check_document(doc, goldens, reference)
    for pid, msg in sorted(crashed.items()):
        attempted += 1
        failures.append((pid, f"{os.path.basename(specs[pid])}: {msg}"))
    if not failures and not reference:
        with open(dfile, "w") as f:
            json.dump(checks.run_digests(doc), f)

    if args.trace:
        metrics, table = per_layer(doc)
        units = PER_LAYER_UNITS
        print("span                         calls   cpu_ms  wall_ms  "
              "self_ms")
        for name, t in sorted(table.items()):
            print(f"{name:28s} {t['calls']:6d} {1e3 * t['cpu']:8.1f} "
                  f"{1e3 * t['wall']:8.1f} {1e3 * t['self']:8.1f}")
    else:
        metrics = end_to_end(doc)
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "fingerprint": fingerprint(doc, args.seed),
        "failures": [msg for _, msg in failures],
        "metrics": metrics,
    }
    with open(os.path.join(
            BUILD_DIR, f"record-{args.workload}-{args.seed}-"
                       f"{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for _, msg in failures:
        print(f"FAILED {msg}")
    print("record " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, ValueError,
            KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
