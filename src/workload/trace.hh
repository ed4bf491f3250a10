/**
 * @file
 * Correct-path dynamic trace sources.
 *
 * A TraceSource produces a benchmark's architecturally-correct dynamic
 * instruction sequence: this is what a trace file contains. The SMT
 * core consumes one TraceSource per hardware thread; wrong-path fetch
 * does NOT come from here (it reads the static dictionary directly),
 * so the source position always identifies the next correct-path
 * instruction.
 *
 * Two backends implement the interface: SyntheticTraceStream walks a
 * BenchmarkImage's CFG and behaviour models (the statistical SPECint
 * profiles), and FileTraceStream (workload/trace_file.hh) replays a
 * recorded trace file. Any source can additionally be captured to a
 * file through setRecorder, which is how `smtsim --record` serializes
 * synthetic runs.
 */

#ifndef SMTFETCH_WORKLOAD_TRACE_HH
#define SMTFETCH_WORKLOAD_TRACE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "isa/static_inst.hh"
#include "util/bitfield.hh"
#include "workload/program_builder.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class TraceWriter;

/** One correct-path dynamic instruction. */
struct TraceRecord
{
    const StaticInst *si = nullptr;

    /** For CTIs: did control transfer? (non-CTIs: false) */
    bool taken = false;

    /** Address of the next correct-path instruction. */
    Addr nextPc = invalidAddr;

    /** Effective address for loads/stores. */
    Addr memAddr = invalidAddr;

    Addr pc() const { return si->pc; }
};

/** Aggregate statistics accumulated while generating a trace. */
struct TraceStats
{
    std::uint64_t insts = 0;
    std::uint64_t ctis = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenCtis = 0;
    std::uint64_t takenCond = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** Dynamic average basic-block size (insts per CTI). */
    double
    avgBlockSize() const
    {
        return ctis == 0 ? 0.0
                         : static_cast<double>(insts) /
                               static_cast<double>(ctis);
    }

    /** Dynamic average stream length (insts per taken CTI). */
    double
    avgStreamLength() const
    {
        return takenCtis == 0 ? 0.0
                              : static_cast<double>(insts) /
                                    static_cast<double>(takenCtis);
    }
};

/**
 * Abstract correct-path instruction source for one benchmark.
 *
 * The base class owns everything the consumer-facing contract needs —
 * one-record lookahead (peek), per-thread statistics, an optional
 * capture recorder, and a bounded replay ring supporting rewinds to a
 * recently-consumed position, which squash mechanisms that discard
 * correct-path instructions (the long-latency-load FLUSH policy) need
 * to refetch them. Backends only implement generate(): produce the
 * next never-before-seen record.
 */
class TraceSource
{
  public:
    /** Rewind window in records (must exceed max per-thread
     *  in-flight instructions plus fetch run-ahead). */
    static constexpr std::size_t replayWindow = 4096;

    /** @param image Must outlive the source. */
    explicit TraceSource(const BenchmarkImage &image) : img(image) {}

    virtual ~TraceSource() = default;

    /** The next correct-path record, without consuming it. */
    const TraceRecord &peek();

    /**
     * The record `offset` positions past the next one, without
     * consuming anything (peekAhead(0) == peek()). Records past the
     * generation frontier are produced into a lookahead buffer that
     * next() later drains, so statistics and recording still happen
     * exactly once, at consumption order. The perfect-BP oracle in
     * core/front_end.cc uses this to read the correct path ahead of
     * the fetch stage.
     */
    const TraceRecord &peekAhead(std::uint64_t offset);

    /** PC of the next correct-path instruction. */
    Addr peekPc() { return peek().si->pc; }

    /** Consume and return the next correct-path record. */
    TraceRecord next();

    /** Index of the next record next() will return. */
    std::uint64_t position() const { return nextIndex; }

    /**
     * Rewind so that next() re-delivers the record that was at
     * `index`. The index must be within the replay window.
     */
    void rewindTo(std::uint64_t index);

    /** Statistics over everything generated so far. */
    const TraceStats &stats() const { return tstats; }

    /** The benchmark image this source executes over. */
    const BenchmarkImage &image() const { return img; }

    /**
     * Capture every newly-generated record to `writer` (replays after
     * a rewind are not re-recorded). The writer must outlive the
     * source or be detached with nullptr.
     */
    void setRecorder(TraceWriter *writer) { recorder = writer; }

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). The base
     * state (replay ring, positions, statistics, lookahead) is shared;
     * each backend appends what it needs to resume generation —
     * model/RNG state for the synthetic stream, a file position for
     * the replay stream. restore() requires a freshly-constructed
     * source over the identical image.
     */
    /// @{
    virtual void save(CheckpointWriter &w) const = 0;
    virtual void restore(CheckpointReader &r) = 0;
    /// @}

  protected:
    /** Produce the record following everything generated so far. */
    virtual TraceRecord generate() = 0;

    /** @name Base-state serialization for backends. */
    /// @{
    void saveBase(CheckpointWriter &w) const;
    void restoreBase(CheckpointReader &r);

    /** Records generate() has produced (checkpoint file skipping). */
    std::uint64_t
    generatedRecords() const
    {
        return generatedCount + (haveUpcoming ? 1 : 0) +
               lookahead.size();
    }
    /// @}

    const BenchmarkImage &img;

  private:
    void ensureUpcoming();

    TraceWriter *recorder = nullptr;

    TraceRecord upcoming;
    bool haveUpcoming = false;

    /** Records generated past `upcoming` by peekAhead; ensureUpcoming
     *  drains this before calling generate() again. */
    std::deque<TraceRecord> lookahead;

    TraceStats tstats;

    /** Replay ring: records [generated - window, generated). */
    std::vector<TraceRecord> ring{replayWindow};
    std::uint64_t generatedCount = 0; //!< records ever generated
    std::uint64_t nextIndex = 0;      //!< next record to deliver
};

/**
 * The control half of a synthetic stream: the correct-path PC, the
 * call stack, the oracle outcome history and path signature, and
 * private copies of the image's branch and indirect models. Memory
 * models are not part of it: each carries its own seed, so control
 * flow never reads them. SyntheticTraceStream steps it once per
 * instruction; dynamicAvgBlockSize steps it once per basic block,
 * at the block's last instruction — the only one that can transfer
 * control.
 */
class ControlWalk
{
  public:
    explicit ControlWalk(const BenchmarkImage &image)
        : branchModels(image.branchModels),
          indirectModels(image.indirectModels),
          pc(image.program.entry()), entryPc(image.program.entry())
    {
    }

    /**
     * Resolve `si`, the instruction at pc: draw its branch or indirect
     * model, update the call stack, history and path signature, and
     * move pc to the next correct-path instruction.
     * @return whether control transferred.
     */
    bool
    step(const StaticInst &si)
    {
        bool taken = true;
        switch (si.op) {
          case OpClass::CondBranch:
            taken = branchModels[si.modelId].next(oracleHistory,
                                                  oraclePathSig);
            oracleHistory = (oracleHistory << 1) | (taken ? 1 : 0);
            pc = taken ? si.target : si.nextPc();
            break;
          case OpClass::Jump:
            pc = si.target;
            break;
          case OpClass::CallDirect:
            pc = si.target;
            if (callStack.size() < maxCallDepth)
                callStack.push_back(si.nextPc());
            break;
          case OpClass::Return:
            if (!callStack.empty()) {
                pc = callStack.back();
                callStack.pop_back();
            } else {
                // Defensive: a return with no frame restarts the
                // driver.
                pc = entryPc;
            }
            break;
          case OpClass::JumpIndirect:
            pc = indirectModels[si.modelId].next();
            break;
          default:
            pc = si.nextPc();
            return false;
        }
        // Track the oracle path signature: packed targets of recent
        // taken CTIs, most recent in the low bits.
        if (taken) {
            oraclePathSig =
                (oraclePathSig << pathSigBitsPerTarget) |
                ((pc >> 2) & mask(pathSigBitsPerTarget));
        }
        return taken;
    }

    std::vector<BranchModel> branchModels;
    std::vector<IndirectModel> indirectModels;

    Addr pc;
    std::vector<Addr> callStack;
    std::uint64_t oracleHistory = 0;
    std::uint64_t oraclePathSig = 0;

    static constexpr std::size_t maxCallDepth = 64;

  private:
    Addr entryPc;
};

/**
 * Infinite synthetic correct-path stream: walks the image's CFG,
 * consulting its branch/indirect/memory behaviour models. The stream
 * owns private copies of the models, so multiple streams over the same
 * image are independent.
 */
class SyntheticTraceStream : public TraceSource
{
  public:
    /** @param image Must outlive the stream. */
    explicit SyntheticTraceStream(const BenchmarkImage &image);

    void save(CheckpointWriter &w) const override;
    void restore(CheckpointReader &r) override;

  protected:
    TraceRecord generate() override;

  private:
    ControlWalk control;
    std::vector<MemoryModel> memModels;
};

/**
 * Dynamic average basic-block size (instructions per CTI) of the
 * first `insts` correct-path instructions of `image`, walked a whole
 * block at a time without generating memory addresses or records. It
 * equals a fresh SyntheticTraceStream's stats().avgBlockSize() after
 * `insts` calls to next(): a block the window cuts short counts its
 * instructions but not its terminator.
 */
double dynamicAvgBlockSize(const BenchmarkImage &image,
                           std::uint64_t insts);

} // namespace smt

#endif // SMTFETCH_WORKLOAD_TRACE_HH
