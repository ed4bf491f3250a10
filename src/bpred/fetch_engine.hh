/**
 * @file
 * Fetch engines: the SMT front-ends the simulator can instantiate.
 * The three paper engines are built in; further engines (TAGE, the
 * oracle upper-bound modes, the adaptive fetch-rate policy) register
 * themselves through bpred/engine_registry.hh, which owns the
 * name/factory/parameter-schema bindings for all of them.
 *
 *  - BtbFetchEngine    ("gshare+BTB"): the conventional SMT fetch unit.
 *    One direction prediction per cycle, so a fetch block ends at the
 *    first CTI found after the fetch PC (predecode locates CTIs).
 *  - FtbFetchEngine    ("gskew+FTB"): fetch blocks come from the fetch
 *    target buffer and may embed not-taken conditionals; gskew
 *    predicts only the block-terminating branch.
 *  - StreamFetchEngine ("stream"): the cascaded stream predictor names
 *    whole instruction streams (taken-branch target to next taken
 *    branch) in one prediction.
 *  - TageFetchEngine   ("tage", bpred/tage.hh): the same line-oriented
 *    unit over a TAGE direction predictor (both are LineFetchEngine
 *    instances, one per direction predictor).
 *  - "perfect-bp", "perfect-l1i", "adaptive": registry presets over
 *    the gshare+BTB unit that flip the EngineParams oracle/adaptive
 *    flags the front end honours (core/front_end.cc).
 *
 * All engines share their tables among threads while keeping
 * speculative per-thread state (global history, RAS, path history)
 * with checkpoint/repair on squash — exactly the structure the paper's
 * decoupled SMT front-end requires.
 */

#ifndef SMTFETCH_BPRED_FETCH_ENGINE_HH
#define SMTFETCH_BPRED_FETCH_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "bpred/btb.hh"
#include "bpred/ftb.hh"
#include "bpred/gshare.hh"
#include "bpred/gskew.hh"
#include "bpred/history.hh"
#include "bpred/ras.hh"
#include "bpred/stream_pred.hh"
#include "isa/program.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class StatsRegistry;

/**
 * Which front-end to instantiate. The values are dense ids in
 * registry order (EngineRegistry enforces this at registration);
 * everything outside src/bpred resolves kinds through the registry
 * rather than switching on them.
 */
enum class EngineKind : unsigned char
{
    GshareBtb,
    GskewFtb,
    Stream,
    Tage,
    PerfectBp,
    PerfectL1i,
    Adaptive,
};

/** Canonical display name from the registry ("gshare+BTB", ...). */
const char *engineName(EngineKind kind);

/** Hardware sizing (Table 3 defaults: ~45KB predictor budget each). */
struct EngineParams
{
    // gshare: 64K entries x 2 bits = 16KB counters + BTB.
    unsigned gshareEntries = 64 * 1024;
    unsigned gshareHistoryBits = 16;

    // gskew: 3 banks x 32K entries x 2 bits = 24KB counters + FTB.
    unsigned gskewEntriesPerBank = 32 * 1024;
    unsigned gskewHistoryBits = 15;

    unsigned btbEntries = 2048;
    unsigned btbWays = 4;

    unsigned ftbEntries = 2048;
    unsigned ftbWays = 4;
    unsigned ftbMaxBlock = 32;

    unsigned streamL1Entries = 1024;
    unsigned streamL1Ways = 4;
    unsigned streamL2Entries = 4096;
    unsigned streamL2Ways = 4;
    unsigned streamMaxLength = 64;

    // DOLC 16-2-4-10 (depth, older, last, current bits).
    unsigned dolcDepth = 16;
    unsigned dolcOlderBits = 2;
    unsigned dolcLastBits = 4;
    unsigned dolcCurrentBits = 10;

    unsigned rasEntries = 64;

    /** Sequential block size used on a table miss. */
    unsigned missBlockInsts = 16;

    /** CTI scan cap for the BTB engine (one I-cache line). */
    unsigned btbScanCap = 16;

    // TAGE: bimodal base table plus tagged tables over a geometric
    // history series (capped at 64 bits: the shared u64 global
    // history supplies every table).
    unsigned tageBimodalEntries = 16 * 1024;
    unsigned tageTables = 4;
    unsigned tageEntriesPerTable = 2048;
    unsigned tageTagBits = 9;
    unsigned tageCounterBits = 3;
    unsigned tageMinHistory = 8;
    unsigned tageMaxHistory = 64;
    unsigned tageUsefulResetPeriod = 256 * 1024;

    /** Oracle mode: the prediction stage fetches the correct path
     *  directly from the trace (core/front_end.cc); the base engine
     *  still trains at commit but its predictions are unused. */
    bool perfectBp = false;

    /** Oracle mode: every I-cache access hits, no bank conflicts. */
    bool perfectIcache = false;

    /** Throttle a thread's fetch chunk to adaptiveLowWidth when the
     *  head FTQ block was predicted with low confidence. */
    bool adaptiveFetch = false;
    unsigned adaptiveLowWidth = 4;
};

/** Per-thread speculative state snapshot, taken per fetch block. */
struct EngineCheckpoint
{
    Addr blockStart = invalidAddr;
    std::uint64_t ghist = 0;
    ReturnAddressStack::Snapshot ras;
    PathHistory::Snapshot path;

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh).
     * @param expected_ras_entries The restoring configuration's
     *        EngineParams::rasEntries. When non-zero, a non-empty RAS
     *        snapshot must hold exactly this many entries — a
     *        mismatch would otherwise surface as a mid-simulation
     *        panic when the snapshot is used for squash repair. Every
     *        engine populates the RAS/ghist/path fields (they live in
     *        the shared base class), so the contract is
     *        engine-independent; pass 0 only when the caller cannot
     *        know the target configuration (standalone decode tools).
     */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r,
                 unsigned expected_ras_entries = 0);
    /// @}
};

/** One predicted fetch block (an FTQ entry). */
struct BlockPrediction
{
    Addr start = invalidAddr;

    /** Block length in instructions (terminator included). */
    unsigned lengthInsts = 0;

    /** Does the engine believe the last instruction is a CTI? */
    bool endsWithCti = false;

    /** Believed type of the terminating CTI (when endsWithCti). */
    OpClass endType = OpClass::CondBranch;

    /** Prediction for the terminating CTI. */
    bool predTaken = false;

    /** Predicted target (valid when predTaken). */
    Addr predTarget = invalidAddr;

    /** Where the prediction stage continues next cycle. */
    Addr nextFetchPc = invalidAddr;

    /**
     * The engine had little confidence in this block: a weak
     * direction counter, disagreeing gskew banks, or a sequential
     * fallback block. The adaptive fetch-rate policy
     * (EngineParams::adaptiveFetch) throttles fetch on this flag;
     * engines always populate it (it is advisory otherwise).
     */
    bool lowConfidence = false;

    /** Thread state before this block's speculative effects. */
    EngineCheckpoint ckpt;

    Addr
    endPc() const
    {
        return start + static_cast<Addr>(lengthInsts - 1) * instBytes;
    }

    Addr
    fallThrough() const
    {
        return start + static_cast<Addr>(lengthInsts) * instBytes;
    }

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r,
                 unsigned expected_ras_entries = 0);
    /// @}
};

/**
 * Aggregate engine statistics (read by benches and tests). The struct
 * is shared by every engine but not every field is populated by every
 * engine:
 *
 *  - tableHits counts BTB hits (gshare+BTB, tage, the gshare-based
 *    presets), FTB hits (gskew+FTB), or stream L1+L2 hits (stream).
 *  - secondLevelHits is populated by the stream engine only (its
 *    cascaded second-level table); every other engine leaves it 0.
 *  - All remaining counters are engine-independent and maintained by
 *    the FetchEngine base class or by every engine alike.
 */
struct EngineStats
{
    std::uint64_t blockPredictions = 0;
    std::uint64_t tableHits = 0;      //!< BTB/FTB/stream-L1+L2 hits
    std::uint64_t secondLevelHits = 0; //!< stream L2 hits only
    std::uint64_t seqMissBlocks = 0;  //!< sequential fallback blocks
    std::uint64_t condPredictions = 0;
    std::uint64_t rasPushes = 0;
    std::uint64_t rasPops = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t streamsFormed = 0;  //!< commit-side blocks/streams
};

/**
 * Abstract SMT fetch engine: block prediction, commit-side training,
 * and squash recovery.
 */
class FetchEngine
{
  public:
    /**
     * @param params Hardware sizing (presets already applied).
     * @param kind The engine's natural registry id; makeEngine()
     *        re-stamps it for preset engines (e.g. "perfect-l1i"
     *        constructs a BtbFetchEngine but keeps its own id so
     *        names and checkpoint tags stay distinct).
     */
    FetchEngine(const EngineParams &params, EngineKind kind);
    virtual ~FetchEngine() = default;

    /** Register the static program thread `tid` executes. */
    virtual void setThreadProgram(ThreadID tid,
                                  const StaticProgram *program);

    /**
     * Predict the fetch block starting at `pc` for thread `tid`,
     * speculatively updating the thread's history/RAS/path state.
     */
    virtual BlockPrediction predictBlock(ThreadID tid, Addr pc) = 0;

    /**
     * Commit-side training, called in per-thread program order for
     * every committed CTI.
     *
     * @param was_block_end The fetch unit treated this CTI as the
     *        predicted terminator of its fetch block.
     * @param was_mispredicted The fetch unit mispredicted this CTI
     *        (the front-end restarted at its actual successor).
     * @param pred_ghist Global history the prediction used (only
     *        meaningful when was_block_end).
     */
    virtual void commitCti(ThreadID tid, const StaticInst &si,
                           bool taken, Addr actual_target,
                           bool was_block_end, bool was_mispredicted,
                           std::uint64_t pred_ghist) = 0;

    /**
     * Repair thread state after a squash caused by `offender` (the
     * mispredicted CTI, or the non-CTI end of a bogus block).
     */
    virtual void recover(ThreadID tid, const EngineCheckpoint &ckpt,
                         const StaticInst *offender, bool actual_taken,
                         Addr actual_target);

    /** Reset all tables and thread state (between simulations). */
    virtual void reset();

    /** Registry id (stamped at construction; see makeEngine). */
    EngineKind kind() const { return kindId; }

    /**
     * Block-oriented front ends (FTB, stream) name a whole fetch span
     * per FTQ entry, so wide single-thread fetch may cross into the
     * next I-cache line; line-oriented units read one line per cycle.
     */
    virtual bool blockOriented() const { return false; }

    const char *name() const { return engineName(kind()); }

    /** This engine's checkpoint section tag ("engine.<name>"). */
    const std::string &checkpointTag() const;

    const EngineStats &stats() const { return engineStats; }

    /** Clear counters only (warmup boundary); tables are kept. */
    void resetStats() { engineStats = EngineStats{}; }

    /** Register engine counters under "engine.*". */
    virtual void registerStats(StatsRegistry &reg) const;

    /**
     * Fill the common checkpoint fields for a block at `start`.
     * Public so the front end's perfect-BP oracle path can attach a
     * valid squash-repair checkpoint to the blocks it builds.
     */
    EngineCheckpoint makeCheckpoint(ThreadID tid, Addr start) const;

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). The base
     * implementation covers the shared per-thread speculative state
     * (history, RAS, path, commit-side formation) and the counters;
     * derived engines append their prediction tables.
     */
    /// @{
    virtual void save(CheckpointWriter &w) const;
    virtual void restore(CheckpointReader &r);
    /// @}

  protected:
    /** Sequential fallback block used on any table miss. */
    BlockPrediction sequentialBlock(ThreadID tid, Addr start,
                                    unsigned length);

    EngineParams params;
    EngineStats engineStats;

    std::array<const StaticProgram *, maxThreads> programs{};
    std::array<GlobalHistory, maxThreads> history;
    std::array<PathHistory, maxThreads>
        path; // initialized in constructor
    std::array<ReturnAddressStack, maxThreads> ras;

    /** Commit-side formation state. */
    struct FormationState
    {
        Addr blockStart = invalidAddr;
        bool started = false;

        /**
         * Fall-through restart points inside the current stream
         * (where fetch resumed after a not-taken-mispredicted stream
         * end); they become additional stream starts at closure.
         */
        std::array<Addr, 2> extraStarts{};
        unsigned numExtras = 0;
    };
    std::array<FormationState, maxThreads> formation;
    std::array<PathHistory, maxThreads> commitPath;

    /** Advance formation past length-cap overflow segments. */
    static void capFormationStart(Addr &start, Addr cti_pc,
                                  unsigned cap);

  private:
    friend std::unique_ptr<FetchEngine>
    makeEngine(EngineKind kind, const EngineParams &params);

    EngineKind kindId;
};

/**
 * Conventional line-oriented front-end: a predecode scan finds the
 * first CTI after the fetch PC, a BTB supplies its target and
 * `Direction` predicts conditionals. `Direction` is any predictor with
 * predict/weak/update(pc, history) plus reset/save/restore (gshare,
 * TAGE); it is a plain member, so the predict path makes no virtual
 * call. Instantiated for each predictor in bpred/fetch_engine.cc.
 */
template <class Direction>
class LineFetchEngine : public FetchEngine
{
  public:
    LineFetchEngine(const EngineParams &params, EngineKind kind);

    BlockPrediction predictBlock(ThreadID tid, Addr pc) override;
    void commitCti(ThreadID tid, const StaticInst &si, bool taken,
                   Addr actual_target, bool was_block_end,
                   bool was_mispredicted,
                   std::uint64_t pred_ghist) override;
    void reset() override;
    void save(CheckpointWriter &w) const override;
    void restore(CheckpointReader &r) override;

    Direction &directionPredictor() { return direction; }
    Btb &targetBuffer() { return btb; }

  private:
    Direction direction;
    Btb btb;
};

/** Conventional gshare + BTB front-end ("gshare+BTB"). */
using BtbFetchEngine = LineFetchEngine<GsharePredictor>;
extern template class LineFetchEngine<GsharePredictor>;

/** gskew + FTB front-end. */
class FtbFetchEngine : public FetchEngine
{
  public:
    explicit FtbFetchEngine(const EngineParams &params);

    BlockPrediction predictBlock(ThreadID tid, Addr pc) override;
    void commitCti(ThreadID tid, const StaticInst &si, bool taken,
                   Addr actual_target, bool was_block_end,
                   bool was_mispredicted,
                   std::uint64_t pred_ghist) override;
    bool blockOriented() const override { return true; }
    void reset() override;
    void save(CheckpointWriter &w) const override;
    void restore(CheckpointReader &r) override;

    GskewPredictor &directionPredictor() { return gskew; }
    Ftb &targetBuffer() { return ftb; }

  private:
    GskewPredictor gskew;
    Ftb ftb;
};

/** Stream front-end. */
class StreamFetchEngine : public FetchEngine
{
  public:
    explicit StreamFetchEngine(const EngineParams &params);

    BlockPrediction predictBlock(ThreadID tid, Addr pc) override;
    void commitCti(ThreadID tid, const StaticInst &si, bool taken,
                   Addr actual_target, bool was_block_end,
                   bool was_mispredicted,
                   std::uint64_t pred_ghist) override;
    void recover(ThreadID tid, const EngineCheckpoint &ckpt,
                 const StaticInst *offender, bool actual_taken,
                 Addr actual_target) override;
    bool blockOriented() const override { return true; }
    void reset() override;
    void save(CheckpointWriter &w) const override;
    void restore(CheckpointReader &r) override;

    StreamPredictor &predictor() { return streams; }

  private:
    StreamPredictor streams;
};

/**
 * Factory: resolves `kind` through the engine registry, applies the
 * descriptor's preset (oracle/adaptive flag flips) to a copy of
 * `params`, constructs the engine and stamps its registry id.
 */
std::unique_ptr<FetchEngine> makeEngine(EngineKind kind,
                                        const EngineParams &params);

} // namespace smt

#endif // SMTFETCH_BPRED_FETCH_ENGINE_HH
