/**
 * @file
 * The sweep request/report API: a SweepRequest names the grid points
 * plus the measurement windows and warmup-sharing policy, a
 * SweepReport carries every point's results and the sweep's measured
 * accounting. ExperimentRunner is a thin facade that feeds a request
 * through the scheduler/executor pair (sim/scheduler.hh,
 * sim/executor.hh) and renders paper-figure tables and BENCH_*.json
 * records. `smtsim --checkpoint-dir` drives the same scheduler
 * directly to journal and resume a sweep.
 */

#ifndef SMTFETCH_SIM_EXPERIMENT_HH
#define SMTFETCH_SIM_EXPERIMENT_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/param_spec.hh"
#include "core/sim_stats.hh"
#include "sim/sim_config.hh"

namespace smt
{

class JsonValue;
class JsonWriter;

/**
 * Optional per-run deviations from the Table 3 baseline, used by the
 * ablation sweeps (FTQ depth, predictor budget, long-latency-load
 * policy) and by spec-driven grids: one ordered list of (row, value)
 * pairs over the override schema (core/param_spec.hh). Every consumer
 * (spec parsing, apply, describe, the BENCH-record echo and the
 * journal codec) walks the list and names no key.
 */
struct RunOverrides
{
    using Entry = std::pair<const ParamSpec *, std::uint64_t>;

    /**
     * Canonical order, independent of the order values were set in:
     * core rows in table order, then engine parameters in the order
     * they were set. describe() and the JSON echo follow it.
     */
    std::vector<Entry> entries;

    bool operator==(const RunOverrides &o) const = default;

    /** True when any knob deviates from the baseline. */
    bool any() const { return !entries.empty(); }

    /** Set or replace a row's value; zero clears a rescaling row. */
    void set(const ParamSpec &spec, std::uint64_t value);

    /** Set by key for code-built overrides; fatal() on an unknown key
     *  or an out-of-range value. */
    void set(const std::string &key, std::uint64_t value);

    /**
     * Decode and set one spec/journal JSON member. The key resolves
     * to a core row, else to an engine parameter from the registry.
     * Returns false with `error` set on an unknown key (the message
     * names every accepted key) or a type/range violation.
     */
    bool setJson(const std::string &key, const JsonValue &value,
                 std::string &error);

    /** The value set for `key`, if any. */
    std::optional<std::uint64_t> get(const std::string &key) const;

    /**
     * Apply the overrides to a core configuration: every row in list
     * order, then the rescaling rows (predictorShift shifts the
     * engine table sizes the other rows set).
     */
    void apply(CoreParams &core) const;

    /** Compact "ftq=4 llp=stall" rendering; empty when default. */
    std::string describe() const;

    /** Emit the overridden knobs as JSON object members. */
    void writeJson(JsonWriter &jw) const;
};

/** One point of a sweep grid. */
struct GridPoint
{
    std::string workload;
    EngineKind engine;
    unsigned fetchThreads;
    unsigned fetchWidth;
    PolicyKind policy = PolicyKind::ICount;
    RunOverrides overrides{};

    /** Capture the run's correct-path streams to this trace
     *  file when non-empty (smtsim --record). */
    std::string recordPath;

    /** Extra capture cycles after measurement (--record-pad). */
    Cycle recordPadCycles = 0;

    /** Save a post-warmup checkpoint here (--save-checkpoint). */
    std::string saveCheckpointPath;

    /** Skip warmup by restoring this checkpoint
     *  (--restore-checkpoint). */
    std::string restoreCheckpointPath;
};

/** One grid point's results. */
struct ExperimentResult
{
    std::string workload;
    EngineKind engine = EngineKind::GshareBtb;
    PolicyKind policy = PolicyKind::ICount;
    unsigned fetchThreads = 1;
    unsigned fetchWidth = 8;
    RunOverrides overrides{};

    Cycle warmupCycles = 0;
    Cycle measureCycles = 0;

    double ipfc = 0.0;
    double ipc = 0.0;
    SimStats stats;

    /**
     * Compact JSON object with every registered stat (the core's
     * StatsRegistry dump at the end of the run).
     */
    std::string statsJson;

    /** "1.8" / "2.16" policy suffix. */
    std::string policyDotString() const;
};

/**
 * Everything one sweep run needs: the expanded grid plus the
 * execution parameters shared by every point. The single entry point
 * is ExperimentRunner::run(request) (or SweepScheduler::submit for
 * queued/concurrent execution); there are no positional per-point
 * overloads — a one-point sweep is a one-element `points` vector.
 */
struct SweepRequest
{
    std::vector<GridPoint> points;

    Cycle warmupCycles = 50'000;
    Cycle measureCycles = 300'000;
    std::uint64_t seed = 0;

    /** Event-driven cycle skipping (bit-identical either way). */
    bool cycleSkip = true;

    /**
     * Warmup-snapshot sharing: group points by warmup configuration
     * key, simulate each distinct warmup once (across every job of a
     * SweepScheduler sharing one WarmupSnapshotCache), and restore
     * the snapshot for every other point. Results are bit-identical to
     * the plain path. Implied by a non-empty checkpointDir.
     */
    bool reuseWarmup = false;

    /** Persistent snapshot tier reused across sweeps and processes;
     *  empty keeps snapshots in memory only. */
    std::string checkpointDir;

    /** Warmup sharing is in effect for this request. */
    bool
    reuseEnabled() const
    {
        return reuseWarmup || !checkpointDir.empty();
    }
};

/** End-to-end accounting for a sweep (the bench-record blocks). */
struct SweepTiming
{
    std::size_t gridPoints = 0;
    std::size_t warmupGroups = 0;  //!< distinct warmup keys
    std::size_t warmupRuns = 0;    //!< warmups actually executed
    std::size_t restoredRuns = 0;  //!< points served by restore
    std::size_t directRuns = 0;    //!< points outside the reuse
                                   //!< path (recording, explicit
                                   //!< checkpoint flags)

    /** Points satisfied from a resume journal without simulating
     *  anything (resumed sweeps only; counted inside
     *  completedPoints but NOT inside warmup/restored/direct). */
    std::size_t journaledPoints = 0;
    double warmupSeconds = 0;      //!< wall clock inside warmups
    double sweepSeconds = 0;       //!< wall clock of the sweep

    /** Warmup sharing was active (the `warmupReuse` JSON block
     *  is only meaningful — and only emitted — when true). */
    bool reuseEnabled = false;

    /** @name Snapshot-cache accounting (reuse path only): restored
     *  points split by serving tier, plus the evictions the serving
     *  cache performed over this sweep's lifetime (exact for a
     *  single sweep; a lower bound under concurrent sweeps sharing
     *  one cache). */
    /// @{
    std::uint64_t cacheHits = 0;      //!< memory-tier restores
    std::uint64_t cacheDiskHits = 0;  //!< disk-tier restores
    std::uint64_t cacheEvictions = 0; //!< LRU evictions over the run
    /// @}

    /** @name Simulation-throughput accounting (the `throughput`
     *  JSON block): wall clock spent inside the measurement
     *  windows and the work simulated in them. */
    /// @{
    double measureSeconds = 0;        //!< wall clock in measure
    std::uint64_t simulatedCycles = 0; //!< measured-window cycles
    std::uint64_t committedInsts = 0;  //!< insts committed in them

    /** Event-driven cycle skipping across the measured windows
     *  (all zero with skipping disabled). */
    std::uint64_t cyclesSkipped = 0;   //!< fast-forwarded cycles
    std::uint64_t sleepEvents = 0;     //!< quiescent spans jumped
    std::uint64_t maxSkipSpan = 0;     //!< longest single jump
    /// @}
};

/** A finished sweep: per-point results in grid order plus timing. */
struct SweepReport
{
    std::vector<ExperimentResult> results;
    SweepTiming timing;
};

/**
 * Facade over the scheduler/executor pair: runs one SweepRequest to
 * completion across host threads and renders results. Every
 * reuse-enabled run gets a private warmup-snapshot cache; snapshots
 * outlive it only through the request's checkpointDir disk tier.
 */
class ExperimentRunner
{
  public:
    /** Run a whole request, parallelized across host threads. */
    SweepReport run(const SweepRequest &request) const;

    /** Scheduler pool size for a grid of `points` points: the host
     *  concurrency, capped at the point count. */
    static unsigned workersFor(std::size_t points);

    /**
     * Render a figure: one row per (workload, policy) group, one
     * column per engine, values IPFC or IPC.
     */
    static void printFigure(std::ostream &os, const std::string &title,
                            const std::vector<ExperimentResult> &results,
                            bool fetch_throughput);

    /**
     * Write a machine-readable record for a bench run: one JSON
     * document with bench metadata, every grid point's metrics and
     * full stats, and optional ad-hoc named metrics (the BENCH_*.json
     * format).
     */
    static void
    writeJson(std::ostream &os, const std::string &bench,
              const std::vector<ExperimentResult> &results,
              const std::vector<std::pair<std::string, double>>
                  &metrics = {},
              const SweepTiming *timing = nullptr);
};

/**
 * Every registered engine in registry order (the three paper engines
 * first, then the zoo). Defined in bpred/engine_registry.cc alongside
 * paperEngines(), the paper trio; re-declared here because nearly
 * every sweep caller already includes this header.
 */
const std::vector<EngineKind> &allEngines();

/** The three engines the paper compares, in figure order. */
const std::vector<EngineKind> &paperEngines();

} // namespace smt

#endif // SMTFETCH_SIM_EXPERIMENT_HH
