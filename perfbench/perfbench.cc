/**
 * @file
 * Host-speed benchmark harness for the smtfetch simulator.
 *
 * Runs the grid points of the given experiment specs through the
 * simulator's public API for a host-time budget and writes what it
 * measured as one JSON document: set-up samples, per-run host times,
 * per-point results and stats digests, and, on traced runs, spans
 * around each public call. run.py generates the specs, checks the
 * results and derives the metrics (see README.md).
 *
 *   perfbench --mode direct|sweep --spec FILE [--spec FILE ...]
 *             --seconds S --trace 0|1 --out FILE
 *             [--order-seed N] [--skip ID ...]
 *
 * direct: every point runs on this thread, one Simulator at a time,
 *         so thread CPU time brackets exactly runWarmup/runMeasure.
 * sweep:  every spec goes through one SweepScheduler with warmup
 *         sharing; each iteration is a cold pass followed by a warm
 *         pass over one WarmupSnapshotCache.
 *
 * Host time comes from CLOCK_THREAD_CPUTIME_ID (work on this thread)
 * and CLOCK_PROCESS_CPUTIME_ID (work on scheduler threads), never
 * from the simulator's own throughput accounting.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bpred/fetch_engine.hh"
#include "bpred/gshare.hh"
#include "bpred/gskew.hh"
#include "bpred/history.hh"
#include "bpred/stream_pred.hh"
#include "mem/hierarchy.hh"
#include "sim/executor.hh"
#include "sim/experiment.hh"
#include "sim/result_codec.hh"
#include "sim/scheduler.hh"
#include "sim/simulator.hh"
#include "sim/snapshot_cache.hh"
#include "sim/sweep_spec.hh"
#include "util/json.hh"
#include "util/sha256.hh"
#include "workload/trace.hh"
#include "workload/workloads.hh"

using namespace smt;

namespace
{

// ------------------------------------------------------------- clocks

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double threadCpu() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double processCpu() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double wallNow() { return clockSeconds(CLOCK_MONOTONIC); }

// ------------------------------------------------------------- tracing

/** One call into a layer, recorded on traced runs only. */
struct Span
{
    std::string name;
    int parent = -1;
    int iteration = -1;   //!< timed iteration or replay repetition
    long point = -1;      //!< global point id; -1 when not per point
    bool processClock = false; //!< cpu includes scheduler threads
    double w0 = 0, w1 = 0, c0 = 0, c1 = 0;
    double work = 0; //!< units of work done (cycles, records, ...)
};

/** In-memory span store, written once at exit. */
struct Tracer
{
    bool enabled = false;
    int iteration = -1;
    std::vector<Span> spans;
    std::vector<int> open;
};

Tracer tracer;

/** RAII span around one public call; does nothing when tracing is
 *  off. Set `work` before the scope closes. */
class Scope
{
  public:
    explicit Scope(const char *name, long point = -1,
                   bool process_clock = false)
    {
        if (!tracer.enabled)
            return;
        id = int(tracer.spans.size());
        Span s;
        s.name = name;
        s.parent = tracer.open.empty() ? -1 : tracer.open.back();
        s.iteration = tracer.iteration;
        s.point = point;
        s.processClock = process_clock;
        tracer.spans.push_back(std::move(s));
        tracer.open.push_back(id);
        Span &sp = tracer.spans.back();
        sp.w0 = wallNow();
        sp.c0 = process_clock ? processCpu() : threadCpu();
    }

    ~Scope()
    {
        if (id < 0)
            return;
        Span &sp = tracer.spans[id];
        sp.c1 = sp.processClock ? processCpu() : threadCpu();
        sp.w1 = wallNow();
        sp.work = work;
        tracer.open.pop_back();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double work = 0;

  private:
    int id = -1;
};

// ------------------------------------------------------------- inputs

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One grid point of the plan, numbered across all specs. */
struct PointRef
{
    std::size_t spec = 0;
    GridPoint point;
    ExecutorParams params;

    SimConfig
    config() const
    {
        return PointExecutor(params).configFor(point);
    }
};

struct Plan
{
    std::vector<SweepSpec> specs;
    std::vector<SweepRequest> requests;
    std::vector<PointRef> points;
};

Plan
parsePlan(const std::vector<std::string> &paths,
          const std::vector<std::string> &texts)
{
    Plan plan;
    for (std::size_t i = 0; i < texts.size(); ++i) {
        Scope s("sim.spec_parse");
        plan.specs.push_back(SweepSpec::fromString(texts[i], paths[i]));
        s.work = 1;
    }
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        SweepRequest req = plan.specs[i].makeRequest();
        ExecutorParams params{req.warmupCycles, req.measureCycles,
                              req.seed, req.cycleSkip};
        for (const GridPoint &p : req.points)
            plan.points.push_back({i, p, params});
        plan.requests.push_back(std::move(req));
    }
    return plan;
}

struct SetupSample
{
    double parse = 0;     //!< thread CPU s in SweepSpec::fromString
    double construct = 0; //!< thread CPU s building Simulators
};

/**
 * The set-up a user pays before the first simulated cycle: parse
 * every spec and build every point's Simulator (images, traces,
 * core). Simulators are built and dropped one at a time, as a sweep
 * does; destruction is not timed.
 */
SetupSample
setupOnce(const std::vector<std::string> &paths,
          const std::vector<std::string> &texts, Plan &plan)
{
    SetupSample s;
    double c0 = threadCpu();
    plan = parsePlan(paths, texts);
    s.parse = threadCpu() - c0;
    for (std::size_t id = 0; id < plan.points.size(); ++id) {
        SimConfig cfg = plan.points[id].config();
        double c = threadCpu();
        std::unique_ptr<Simulator> sim;
        {
            Scope sp("sim.construct", long(id));
            sim = std::make_unique<Simulator>(cfg);
            sp.work = 1;
        }
        s.construct += threadCpu() - c;
    }
    return s;
}

// ------------------------------------------------------------- runs

/** One point's outcome within one run. */
struct PointRun
{
    long id = -1;
    bool traced = false;
    std::string error;
    std::string digest; //!< sha256 of the measured stats JSON
    double ipfc = 0, ipc = 0;
    double cpu = 0, wall = 0; //!< warmup + measure (direct mode)
    double construct = 0;     //!< Simulator construction (direct mode)
    std::uint64_t cycles = 0, committed = 0;
};

/** A direct pass, a sweep pass, or the traced restore checks. */
struct Run
{
    int iteration = 0;
    std::string pass; //!< "direct", "cold", "warm" or "restored"
    double cpu = 0, wall = 0;          //!< sweep passes only
    std::optional<SweepTiming> timing; //!< sweep passes only
    std::vector<PointRun> points;
};

std::vector<std::optional<ExperimentResult>> firstResults;

ExperimentResult
resultOf(const PointRef &p, const Simulator &sim)
{
    ExperimentResult r;
    r.workload = p.point.workload;
    r.engine = p.point.engine;
    r.policy = p.point.policy;
    r.fetchThreads = p.point.fetchThreads;
    r.fetchWidth = p.point.fetchWidth;
    r.overrides = p.point.overrides;
    r.warmupCycles = p.params.warmupCycles;
    r.measureCycles = p.params.measureCycles;
    r.stats = sim.stats();
    r.ipfc = r.stats.ipfc();
    r.ipc = r.stats.ipc();
    r.statsJson = sim.measuredStatsJson();
    return r;
}

void
record(PointRun &pr, const ExperimentResult &r)
{
    pr.digest = sha256Hex(r.statsJson.data(), r.statsJson.size());
    pr.ipfc = r.ipfc;
    pr.ipc = r.ipc;
    pr.cycles = r.stats.cycles;
    pr.committed = r.stats.instsCommitted;
    if (firstResults.size() <= std::size_t(pr.id))
        firstResults.resize(pr.id + 1);
    if (!firstResults[pr.id])
        firstResults[pr.id] = r;
}

volatile bool sink;

/** Time the public SmtCore::quiescent() probe on the current state. */
void
probeQuiescent(Simulator &sim, long id)
{
    constexpr int calls = 4096;
    Scope s("core.quiescent", id);
    bool any = false;
    for (int i = 0; i < calls; ++i)
        any ^= sim.core().quiescent();
    sink = any;
    s.work = calls;
}

void
timeStatsJson(const Simulator &sim, long id)
{
    Scope s("util.stats_json", id);
    sink = sim.registry().jsonString().empty();
    s.work = 1;
}

std::string
saveCheckpoint(const Simulator &sim, long id)
{
    Scope s("sim.checkpoint_save", id);
    std::string snap = sim.saveCheckpointToString();
    s.work = double(snap.size());
    return snap;
}

void
restoreCheckpoint(Simulator &sim, const std::string &snap, long id)
{
    Scope s("sim.checkpoint_restore", id);
    sim.restoreCheckpointFromString(snap);
    s.work = double(snap.size());
}

void
emitRecord(const std::string &bench,
           const std::vector<ExperimentResult> &results,
           const SweepTiming *timing)
{
    Scope s("sim.emit");
    std::ostringstream os;
    ExperimentRunner::writeJson(os, bench, results, {}, timing);
    s.work = double(os.str().size());
}

void
measure(Simulator &sim, long id)
{
    Scope s("sim.measure", id);
    sim.runMeasure();
    s.work = double(sim.stats().cycles - sim.stats().cyclesSkipped);
}

/**
 * One point on this thread, on a freshly built Simulator. Only
 * runWarmup and runMeasure sit inside the timed brackets. A traced
 * point also checkpoints the warm simulator and measures on a fresh
 * simulator restored from that checkpoint (its digest must match the
 * untraced runs), and runs the extra probes around it.
 */
PointRun
runPoint(const PointRef &p, long id, bool traced,
         std::vector<ExperimentResult> &results)
{
    tracer.enabled = traced;
    PointRun pr;
    pr.id = id;
    pr.traced = traced;
    try {
        SimConfig cfg = p.config();
        double c = threadCpu();
        std::unique_ptr<Simulator> sim;
        {
            Scope s("sim.construct", id);
            sim = std::make_unique<Simulator>(cfg);
            s.work = 1;
        }
        pr.construct = threadCpu() - c;
        double w0 = wallNow(), c0 = threadCpu();
        {
            Scope s("sim.warmup", id);
            sim->runWarmup();
            s.work = double(cfg.warmupCycles);
        }
        double c1 = threadCpu(), w1 = wallNow();
        if (traced) {
            probeQuiescent(*sim, id);
            std::string snap = saveCheckpoint(*sim, id);
            sim = std::make_unique<Simulator>(cfg);
            restoreCheckpoint(*sim, snap, id);
        }
        double w2 = wallNow(), c2 = threadCpu();
        measure(*sim, id);
        double c3 = threadCpu(), w3 = wallNow();
        pr.cpu = (c1 - c0) + (c3 - c2);
        pr.wall = (w1 - w0) + (w3 - w2);
        ExperimentResult r = resultOf(p, *sim);
        record(pr, r);
        if (traced) {
            probeQuiescent(*sim, id);
            timeStatsJson(*sim, id);
            results.push_back(std::move(r));
        }
    } catch (const std::exception &e) {
        pr.error = e.what();
    }
    tracer.enabled = false;
    return pr;
}

/** Direct mode: every this-many-th point gets a traced twin, which
 *  keeps a traced run within about 1.5 untraced passes. */
constexpr std::size_t tracedStride = 4;

/**
 * Direct mode: one pass over the points, re-parsing the specs (a
 * set-up sample) and running every point on this thread. Passes after
 * the first stop at the deadline; points in `skip` do not run. With
 * `paired`, every tracedStride-th point runs a second time right after
 * its untraced run, traced, so the tracing overhead compares the same
 * work.
 */
Run
runDirect(const std::vector<std::string> &paths,
          const std::vector<std::string> &texts, int pass, bool paired,
          double deadline, const std::set<long> &skip,
          std::vector<SetupSample> &setup)
{
    Run run;
    run.iteration = pass;
    run.pass = "direct";
    tracer.iteration = pass;
    SetupSample sample;
    double c0 = threadCpu();
    Plan plan = parsePlan(paths, texts);
    sample.parse = threadCpu() - c0;
    setup.push_back(sample);
    std::vector<ExperimentResult> results;
    for (std::size_t id = 0; id < plan.points.size(); ++id) {
        if (pass > 0 && wallNow() >= deadline)
            break;
        if (skip.count(long(id)))
            continue;
        // A panicking point aborts the process; run.py reads the last
        // id announced here, records the point as failed and reruns
        // without it.
        std::cerr << "perfbench: point " << id << std::endl;
        run.points.push_back(
            runPoint(plan.points[id], long(id), false, results));
        if (paired && id % tracedStride == 0)
            run.points.push_back(
                runPoint(plan.points[id], long(id), true, results));
    }
    if (paired) {
        tracer.enabled = true;
        emitRecord("perfbench", results, nullptr);
        tracer.enabled = false;
    }
    return run;
}

void
addTiming(SweepTiming &sum, const SweepTiming &t)
{
    sum.warmupRuns += t.warmupRuns;
    sum.restoredRuns += t.restoredRuns;
    sum.warmupSeconds += t.warmupSeconds;
    sum.measureSeconds += t.measureSeconds;
    sum.simulatedCycles += t.simulatedCycles;
    sum.committedInsts += t.committedInsts;
}

/**
 * One sweep pass: every spec submitted to the scheduler at once, in
 * an order (and with a point order inside each spec) drawn from
 * `rng`, then waited for and emitted as BENCH records. Results are
 * matched back to global point ids, so the order cannot change what
 * the checks compare.
 */
Run
runPass(const Plan &plan, SweepScheduler &sched, std::mt19937_64 &rng,
        int iteration, bool traced, const char *pass)
{
    Run run;
    run.iteration = iteration;
    run.pass = pass;
    SweepTiming sum;

    std::vector<std::size_t> base(plan.specs.size());
    for (std::size_t s = 1; s < base.size(); ++s)
        base[s] = base[s - 1] + plan.requests[s - 1].points.size();
    std::vector<std::size_t> order(plan.specs.size());
    for (std::size_t s = 0; s < order.size(); ++s)
        order[s] = s;
    std::shuffle(order.begin(), order.end(), rng);

    Scope passSpan(std::string(pass) == "cold" ? "sim.sweep_cold"
                                               : "sim.sweep_warm",
                   -1, true);
    double c0 = processCpu(), w0 = wallNow();
    std::vector<std::vector<long>> ids(plan.specs.size());
    std::vector<SweepScheduler::JobId> jobs;
    for (std::size_t s : order) {
        SweepRequest req = plan.requests[s];
        std::vector<std::size_t> perm(req.points.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        std::shuffle(perm.begin(), perm.end(), rng);
        std::vector<GridPoint> points;
        for (std::size_t i : perm) {
            points.push_back(req.points[i]);
            ids[s].push_back(long(base[s] + i));
        }
        req.points = std::move(points);
        req.reuseWarmup = true;
        Scope sub("sim.submit");
        jobs.push_back(sched.submit(req, plan.specs[s].benchName()));
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
        std::size_t s = order[k];
        std::optional<SweepReport> report;
        std::string error;
        try {
            Scope w("sim.wait", -1, true);
            report = sched.wait(jobs[k]);
        } catch (const std::exception &e) {
            error = e.what();
        }
        for (std::size_t i = 0; i < ids[s].size(); ++i) {
            PointRun pr;
            pr.id = ids[s][i];
            pr.traced = traced;
            if (report && i < report->results.size())
                record(pr, report->results[i]);
            else
                pr.error = error.empty() ? "missing result" : error;
            run.points.push_back(std::move(pr));
        }
        if (report) {
            emitRecord(plan.specs[s].benchName(), report->results,
                       &report->timing);
            addTiming(sum, report->timing);
        }
    }
    run.cpu = processCpu() - c0;
    run.wall = wallNow() - w0;
    passSpan.work = double(sum.simulatedCycles);
    run.timing = sum;
    return run;
}

/**
 * Traced sweep iterations only: with the warm cache still alive,
 * restore every warmup group's snapshot into a fresh Simulator on
 * this thread (timing restore, save and the stats dump), and run the
 * measurement window of the first point of each distinct workload,
 * whose digest must equal the scheduler's.
 */
Run
restoreChecks(const Plan &plan, WarmupSnapshotCache &cache,
              int iteration)
{
    Run run;
    run.iteration = iteration;
    run.pass = "restored";
    std::set<std::string> keys, workloads;
    for (std::size_t id = 0; id < plan.points.size(); ++id) {
        const PointRef &p = plan.points[id];
        std::string key = PointExecutor(p.params).warmupKey(p.point);
        if (!keys.insert(key).second)
            continue;
        auto got = cache.acquire(key);
        if (!got.snapshot) {
            cache.abandon(key);
            continue;
        }
        PointRun pr;
        pr.id = long(id);
        pr.traced = true;
        bool measured = workloads.insert(p.point.workload).second;
        try {
            Simulator sim(p.config());
            restoreCheckpoint(sim, *got.snapshot, pr.id);
            saveCheckpoint(sim, pr.id);
            probeQuiescent(sim, pr.id);
            if (measured) {
                double c0 = threadCpu(), w0 = wallNow();
                measure(sim, pr.id);
                pr.cpu = threadCpu() - c0;
                pr.wall = wallNow() - w0;
                record(pr, resultOf(p, sim));
                timeStatsJson(sim, pr.id);
            }
        } catch (const std::exception &e) {
            pr.error = e.what();
            measured = true;
        }
        if (measured)
            run.points.push_back(std::move(pr));
    }
    return run;
}

// ------------------------------------------------------------- replays

/** A correct-path record, reduced to what the layer replays use. */
struct Rec
{
    Addr pc, nextPc, memAddr;
    OpClass op;
    bool taken;
};

constexpr std::uint64_t replayRecords = 40'000; //!< per thread

/**
 * Predict and train every conditional branch of `recs` through a
 * global-history direction predictor (gshare, gskew), one history
 * register per thread. Returns the branches replayed.
 */
template <typename Predictor>
std::uint64_t
replayDirection(Predictor &pred, const std::vector<std::vector<Rec>> &recs)
{
    std::uint64_t n = 0, wrong = 0;
    for (const auto &thread : recs) {
        std::uint64_t hist = 0;
        for (const Rec &r : thread) {
            if (!isConditional(r.op))
                continue;
            wrong += pred.predict(r.pc, hist) != r.taken;
            pred.update(r.pc, hist, r.taken);
            hist = (hist << 1) | r.taken;
            ++n;
        }
    }
    sink = wrong == 0;
    return n;
}

/**
 * Standalone layer replays for one (workload, seed): build the
 * images, replay each thread's SyntheticTraceStream, then feed the
 * records' branch outcomes to the public predictor classes of the
 * engines the workload runs with and their data addresses to a fresh
 * MemoryHierarchy.
 */
void
replayLayers(const SimConfig &cfg, const std::set<EngineKind> &engines,
             long id)
{
    WorkloadImages images;
    {
        Scope s("workload.build_image", id);
        images = buildWorkload(cfg.workload, cfg.seed);
        s.work = images.numThreads();
    }
    const unsigned threads = images.numThreads();
    {
        Scope s("workload.replay", id);
        Addr acc = 0;
        for (unsigned t = 0; t < threads; ++t) {
            SyntheticTraceStream st(*images.images[t]);
            for (std::uint64_t n = 0; n < replayRecords; ++n)
                acc ^= st.next().nextPc;
        }
        sink = acc == 0;
        s.work = double(replayRecords * threads);
    }
    std::vector<std::vector<Rec>> recs(threads);
    for (unsigned t = 0; t < threads; ++t) {
        SyntheticTraceStream st(*images.images[t]);
        recs[t].reserve(replayRecords);
        for (std::uint64_t n = 0; n < replayRecords; ++n) {
            TraceRecord r = st.next();
            recs[t].push_back(
                {r.pc(), r.nextPc, r.memAddr, r.si->op, r.taken});
        }
    }

    const EngineParams &ep = cfg.core.engineParams;
    if (engines.count(EngineKind::GshareBtb)) {
        Scope s("bpred.gshare", id);
        GsharePredictor pred(ep.gshareEntries, ep.gshareHistoryBits);
        s.work = double(replayDirection(pred, recs));
    }
    if (engines.count(EngineKind::GskewFtb)) {
        Scope s("bpred.gskew", id);
        GskewPredictor pred(ep.gskewEntriesPerBank, ep.gskewHistoryBits);
        s.work = double(replayDirection(pred, recs));
    }
    if (engines.count(EngineKind::Stream)) {
        Scope s("bpred.stream", id);
        StreamPredictor pred(ep.streamL1Entries, ep.streamL1Ways,
                             ep.streamL2Entries, ep.streamL2Ways,
                             ep.streamMaxLength);
        std::uint64_t n = 0, hits = 0;
        for (const auto &thread : recs) {
            PathHistory path;
            Addr start = thread.empty() ? 0 : thread.front().pc;
            unsigned length = 0;
            for (const Rec &r : thread) {
                ++length;
                if (!isControl(r.op) || !r.taken)
                    continue;
                hits += pred.predict(start, path).hit;
                pred.update(start, length, r.nextPc, r.op, path);
                path.push(start);
                start = r.nextPc;
                length = 0;
                ++n;
            }
        }
        sink = hits == 0;
        s.work = double(n);
    }
    {
        Scope s("mem.dcache_replay", id);
        MemoryHierarchy mem(cfg.core.memory);
        Cycle now = 0, latency = 0;
        std::uint64_t n = 0;
        for (std::uint64_t i = 0; i < replayRecords; ++i) {
            for (unsigned t = 0; t < threads; ++t) {
                const Rec &r = recs[t][i];
                if (r.memAddr == invalidAddr)
                    continue;
                latency += mem.dcacheAccess(ThreadID(t), r.memAddr,
                                            r.op == OpClass::Store, now);
                ++now;
                ++n;
            }
        }
        sink = latency == 0;
        s.work = double(n);
    }
}

/** Distinct (workload, seed) pairs replayed, in point order. */
constexpr std::size_t maxReplayGroups = 4;

/** Replay the plan's first distinct (workload, seed) pairs `reps`
 *  times each. */
void
replayAll(const Plan &plan, int reps)
{
    std::map<long, std::set<EngineKind>> groups;
    std::map<std::string, long> firstOf;
    for (std::size_t id = 0; id < plan.points.size(); ++id) {
        const PointRef &p = plan.points[id];
        std::string key =
            p.point.workload + "#" + std::to_string(p.params.seed);
        long first = firstOf.try_emplace(key, long(id)).first->second;
        groups[first].insert(p.point.engine);
    }
    for (int rep = 0; rep < reps; ++rep) {
        tracer.iteration = rep;
        Scope s("replay");
        std::size_t n = 0;
        for (const auto &[key, group] : groups) {
            if (n++ == maxReplayGroups)
                break;
            replayLayers(plan.points[key].config(), group, key);
        }
    }
}

// ------------------------------------------------------------- output

void
writeFingerprint(JsonWriter &jw, unsigned workers)
{
    jw.beginObject();
    jw.field("compiler", PERFBENCH_COMPILER);
    jw.field("buildType", PERFBENCH_BUILD_TYPE);
    jw.field("flags", PERFBENCH_CXX_FLAGS);
    jw.field("workers", workers);
    jw.endObject();
}

/** Why this build must not be timed; empty when it may. */
std::string
buildProblem()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        return "build type is '" + std::string(PERFBENCH_BUILD_TYPE) +
               "', not Release";
    if (PERFBENCH_SANITIZE || flags.find("-fsanitize") != std::string::npos)
        return "sanitizer build";
    if (PERFBENCH_COVERAGE || flags.find("--coverage") != std::string::npos ||
        flags.find("-pg") != std::string::npos)
        return "coverage or profiling build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
    return "unoptimized build";
#endif
    return "";
}

void
writeRun(JsonWriter &jw, const Run &run)
{
    jw.beginObject();
    jw.field("iteration", run.iteration);
    jw.field("pass", run.pass);
    jw.field("cpu_s", run.cpu);
    jw.field("wall_s", run.wall);
    if (run.timing) {
        const SweepTiming &t = *run.timing;
        jw.key("timing");
        jw.beginObject();
        jw.field("warmupRuns", std::uint64_t(t.warmupRuns));
        jw.field("restoredRuns", std::uint64_t(t.restoredRuns));
        jw.field("warmupSeconds", t.warmupSeconds);
        jw.field("measureSeconds", t.measureSeconds);
        jw.field("simulatedCycles", t.simulatedCycles);
        jw.field("committedInsts", t.committedInsts);
        jw.endObject();
    }
    jw.key("points");
    jw.beginArray();
    for (const PointRun &p : run.points) {
        jw.beginObject();
        jw.field("id", std::int64_t(p.id));
        jw.field("traced", p.traced);
        if (!p.error.empty())
            jw.field("error", p.error);
        jw.field("digest", p.digest);
        jw.field("ipfc", p.ipfc);
        jw.field("ipc", p.ipc);
        jw.field("cpu_s", p.cpu);
        jw.field("wall_s", p.wall);
        jw.field("construct_s", p.construct);
        jw.field("cycles", p.cycles);
        jw.field("committed", p.committed);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
}

void
writeSpan(JsonWriter &jw, const Span &s)
{
    jw.beginObject();
    jw.field("name", s.name);
    jw.field("parent", s.parent);
    jw.field("iteration", s.iteration);
    jw.field("point", std::int64_t(s.point));
    jw.field("processClock", s.processClock);
    jw.field("w0", s.w0);
    jw.field("w1", s.w1);
    jw.field("c0", s.c0);
    jw.field("c1", s.c1);
    jw.field("work", s.work);
    jw.endObject();
}

struct Args
{
    std::string mode;
    std::vector<std::string> specs;
    double seconds = 10;
    bool trace = false;
    std::string out;
    std::uint64_t orderSeed = 0; //!< sweep mode: submission order
    std::set<long> skip;         //!< direct mode: point ids not to run
};

/** Sweep mode: scheduler workers, at most 4 so that hosts of 4 or
 *  more CPUs run the same schedule. */
unsigned
sweepWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** Sweep mode: set-ups timed before the sweep (median reported). */
constexpr int sweepSetupReps = 3;

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string opt = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + opt);
        std::string v = argv[++i];
        if (opt == "--mode")
            a.mode = v;
        else if (opt == "--spec")
            a.specs.push_back(v);
        else if (opt == "--seconds")
            a.seconds = std::stod(v);
        else if (opt == "--trace")
            a.trace = v == "1";
        else if (opt == "--out")
            a.out = v;
        else if (opt == "--order-seed")
            a.orderSeed = std::stoull(v);
        else if (opt == "--skip")
            a.skip.insert(std::stol(v));
        else
            throw std::runtime_error("unknown option " + opt);
    }
    if ((a.mode != "direct" && a.mode != "sweep") || a.specs.empty() ||
        a.out.empty())
        throw std::runtime_error(
            "usage: perfbench --mode direct|sweep --spec FILE... "
            "--seconds S --trace 0|1 --out FILE");
    return a;
}

int
run(const Args &args)
{
    std::vector<std::string> texts;
    for (const std::string &path : args.specs)
        texts.push_back(readFile(path));
    Plan plan = parsePlan(args.specs, texts);

    std::vector<Run> runs;
    std::vector<SetupSample> setup;
    const double start = wallNow();
    if (args.mode == "direct") {
        // Every point once (paired with a traced twin on traced runs),
        // then more passes while the budget lasts.
        for (int pass = 0; pass == 0 || wallNow() - start < args.seconds;
             ++pass)
            runs.push_back(runDirect(args.specs, texts, pass,
                                     args.trace && pass == 0,
                                     start + args.seconds, args.skip,
                                     setup));
    } else {
        // A sweep builds its Simulators on scheduler threads, so its
        // set-up is repeated here on its own.
        tracer.enabled = args.trace;
        for (int rep = 0; rep < sweepSetupReps; ++rep) {
            tracer.iteration = rep;
            Scope s("setup");
            setup.push_back(setupOnce(args.specs, texts, plan));
        }
        // Traced runs alternate plain and traced iterations so the
        // tracing overhead can be read off.
        std::mt19937_64 rng(args.orderSeed);
        const double timed = wallNow();
        int iteration = 0;
        do {
            bool traced = args.trace && iteration % 2 == 1;
            tracer.enabled = traced;
            tracer.iteration = iteration;
            WarmupSnapshotCache cache;
            SweepScheduler sched(sweepWorkers(), &cache);
            runs.push_back(
                runPass(plan, sched, rng, iteration, traced, "cold"));
            runs.push_back(
                runPass(plan, sched, rng, iteration, traced, "warm"));
            if (traced)
                runs.push_back(restoreChecks(plan, cache, iteration));
            ++iteration;
        } while (wallNow() - timed < args.seconds || iteration < 2);
    }

    if (args.trace) {
        tracer.enabled = true;
        replayAll(plan, 3);
    }
    tracer.enabled = false;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream out(args.out);
    JsonWriter jw(out, 0);
    jw.beginObject();
    jw.key("fingerprint");
    writeFingerprint(jw, args.mode == "sweep" ? sweepWorkers() : 1);
    jw.field("peak_rss_kb", std::int64_t(ru.ru_maxrss));
    jw.key("setup");
    jw.beginArray();
    for (const SetupSample &s : setup) {
        jw.beginObject();
        jw.field("parse_s", s.parse);
        jw.field("construct_s", s.construct);
        jw.endObject();
    }
    jw.endArray();
    jw.key("points");
    jw.beginArray();
    for (std::size_t id = 0; id < firstResults.size(); ++id) {
        if (!firstResults[id]) {
            jw.raw("null");
            continue;
        }
        jw.beginObject();
        jw.field("spec", std::uint64_t(plan.points[id].spec));
        jw.key("result");
        writeResultJson(jw, *firstResults[id]);
        jw.endObject();
    }
    jw.endArray();
    jw.key("runs");
    jw.beginArray();
    for (const Run &r : runs)
        writeRun(jw, r);
    jw.endArray();
    jw.key("spans");
    jw.beginArray();
    for (const Span &s : tracer.spans)
        writeSpan(jw, s);
    jw.endArray();
    jw.endObject();
    out << '\n';
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + args.out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        std::string problem = buildProblem();
        if (!problem.empty()) {
            std::cerr << "perfbench: refusing to time a " << problem
                      << "; rebuild with -DCMAKE_BUILD_TYPE=Release and "
                         "no sanitizer or coverage options\n";
            return 3;
        }
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
