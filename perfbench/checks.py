"""Correctness checks on the simulated results a perfbench run produced.

Every check here works on plain dicts (the harness's JSON document and
the committed BENCH records), so the self-test can feed it
hand-made results.
"""

import json
import math
import os


def result_key(r):
    """Identify a grid point the way the golden records do: workload,
    engine, policy (N.X included) and the overrides object."""
    return (
        r["workload"],
        r["engine"],
        r["policyString"],
        json.dumps(r.get("overrides", {}), sort_keys=True),
    )


def load_golden(path):
    """Map result_key -> result for one committed BENCH record."""
    with open(path) as f:
        doc = json.load(f)
    golden = {}
    for r in doc.get("results", []):
        key = result_key(r)
        if key in golden:
            raise ValueError(f"{path}: duplicate golden point {key}")
        golden[key] = r
    return golden


def describe(r):
    """Name a point in a failure message."""
    text = f'{r["workload"]} {r["engine"]} {r["policyString"]}'
    if r.get("variant"):
        text += f' {r["variant"]}'
    return text


def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def conservation_errors(result):
    """Model invariants every measured point must satisfy: finite
    stats, per-thread IPC summing to sim.ipc and commit.insts /
    sim.cycles equal to sim.ipc."""
    stats = result.get("stats", {})
    errors = []
    for name in ("ipfc", "ipc"):
        if not _finite(result.get(name)):
            errors.append(f"non-finite {name}")
    for name, v in stats.items():
        if not isinstance(v, dict) and not _finite(v):
            errors.append(f"non-finite {name}")
    if errors:
        return errors
    ipc = stats["sim.ipc"]
    threads = [v for k, v in stats.items()
               if k.startswith("sim.thread") and k.endswith(".ipc")]
    if not threads or not math.isclose(sum(threads), ipc, rel_tol=1e-12,
                                       abs_tol=1e-15):
        errors.append(f"per-thread IPC sums to {sum(threads)!r}, "
                      f"sim.ipc is {ipc!r}")
    cycles = stats["sim.cycles"]
    if cycles <= 0 or stats["commit.insts"] / cycles != ipc:
        errors.append(f"commit.insts / sim.cycles != sim.ipc ({ipc!r})")
    if result["ipc"] != ipc:
        errors.append(f"result ipc {result['ipc']!r} != sim.ipc {ipc!r}")
    return errors


def check_document(doc, goldens, reference_digests=None):
    """Check every point run a harness document records.

    doc: the harness's JSON document.
    goldens: {spec index: {result_key: golden result}}; points of a
        spec listed there must equal their golden ipfc/ipc bit for bit
        in every run, and every golden point must have been run.
    reference_digests: {point id: digest} from earlier runs of the
        same build on the same inputs (determinism across processes).

    Returns (attempted, failures) where failures is a list of
    (point id or None, message) pairs, one per failed point run.
    """
    points = doc["points"]
    reference_digests = reference_digests or {}
    failures = []

    # Per-point verdicts that apply to every run of the point.
    bad = {}
    golden_of = {}
    seen_golden = set()
    for pid, entry in enumerate(points):
        if entry is None:
            continue
        r = entry["result"]
        errors = conservation_errors(r)
        spec_golden = goldens.get(entry["spec"])
        if spec_golden is not None:
            g = spec_golden.get(result_key(r))
            if g is not None:
                golden_of[pid] = g
                seen_golden.add((entry["spec"], result_key(r)))
        if errors:
            bad[pid] = "; ".join(errors)

    first_digest = {}
    attempted = 0
    for run in doc["runs"]:
        for p in run["points"]:
            attempted += 1
            pid = p["id"]
            entry = points[pid] if 0 <= pid < len(points) else None
            name = describe(entry["result"]) if entry else f"point {pid}"
            where = f'{name} ({run["pass"]} run {run["iteration"]})'
            if p.get("error"):
                failures.append((pid, f"{where}: {p['error']}"))
                continue
            if not (_finite(p["ipfc"]) and _finite(p["ipc"])):
                failures.append((pid, f"{where}: non-finite ipfc/ipc"))
                continue
            if pid in bad:
                failures.append((pid, f"{where}: {bad[pid]}"))
                continue
            ref = reference_digests.get(pid) or first_digest.setdefault(
                pid, p["digest"])
            if p["digest"] != ref:
                failures.append(
                    (pid, f"{where}: stats digest differs from earlier runs"))
                continue
            g = golden_of.get(pid)
            if g is not None and (p["ipfc"] != g["ipfc"] or
                                  p["ipc"] != g["ipc"]):
                failures.append(
                    (pid, f"{where}: ipfc/ipc {p['ipfc']!r}/{p['ipc']!r} "
                          f"!= golden {g['ipfc']!r}/{g['ipc']!r}"))

    for spec, golden in goldens.items():
        for key, g in golden.items():
            if (spec, key) not in seen_golden:
                attempted += 1
                failures.append((None, f"{describe(g)}: golden point "
                                       "was never run"))
    return attempted, failures


def run_digests(doc):
    """{point id: digest} of the first successful run of each point."""
    digests = {}
    for run in doc["runs"]:
        for p in run["points"]:
            if not p.get("error") and p["digest"]:
                digests.setdefault(p["id"], p["digest"])
    return digests


def load_goldens_for(spec_paths, golden_dir, pinned):
    """Goldens for the specs whose name is in `pinned`, by spec index."""
    goldens = {}
    for i, path in enumerate(spec_paths):
        name = os.path.splitext(os.path.basename(path))[0]
        if name in pinned:
            goldens[i] = load_golden(
                os.path.join(golden_dir, f"BENCH_{name}.json"))
    return goldens
