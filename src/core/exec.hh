/**
 * @file
 * Execute unit: functional-unit latency model plus a completion event
 * wheel. Issue-width limits are enforced by the issue queues; this
 * unit assigns latencies (memory latency comes from the hierarchy)
 * and delivers completions by (thread, seq) so squashed instructions
 * are ignored safely.
 *
 * Completions within one wheel revolution of their issue cycle (all
 * of them, in practice) live in the wheel. Longer latencies — a miss
 * queued behind a chain of busy MSHRs — spill into a small overflow
 * map ordered by cycle, then issue order. An overflow event was issued
 * before every wheel event of its cycle (it is at least one full
 * revolution old), so it is delivered first: completion order is
 * always cycle, then issue order.
 */

#ifndef SMTFETCH_CORE_EXEC_HH
#define SMTFETCH_CORE_EXEC_HH

#include <cstdint>
#include <map>
#include <vector>

#include "core/dyn_inst.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;

/** Latency assignment and completion scheduling. */
class ExecUnit
{
  public:
    ExecUnit(const CoreParams &params, MemoryHierarchy &memory);

    /**
     * Begin executing an instruction this cycle; schedules its
     * completion. Loads/stores access the D-cache here (wrong-path
     * included: they pollute the caches realistically).
     *
     * @return the assigned execution latency in cycles.
     */
    Cycle issue(DynInst &inst, Cycle now);

    /**
     * Collect (tid, seq) pairs completing at `now`.
     */
    void completionsAt(Cycle now,
                       std::vector<std::pair<ThreadID, InstSeqNum>> &out);

    /** Anything scheduled to complete exactly at `now`? */
    bool
    pendingAt(Cycle now) const
    {
        return !wheel[now % wheelSize].empty() ||
               (!overflow.empty() && overflow.begin()->first == now);
    }

    /**
     * Earliest cycle strictly after `now` with a scheduled
     * completion, or `now` itself when nothing is scheduled. Wheel
     * events lie within one revolution of `now`, so one scan finds
     * the first of them; the overflow map's first key covers the
     * rest.
     */
    Cycle nextEventCycle(Cycle now) const;

    void reset();

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    using Completions = std::vector<std::pair<ThreadID, InstSeqNum>>;

    /** Checkpoint helper: append one serialized completion list. */
    void readCompletions(CheckpointReader &r, Completions &into) const;

    static constexpr std::size_t wheelSize = 2048;

    const CoreParams &params;
    MemoryHierarchy &memory;

    std::vector<Completions> wheel;

    /** Completions a revolution or more after their issue cycle,
     *  keyed by cycle, each list in issue order. */
    std::map<Cycle, Completions> overflow;
};

} // namespace smt

#endif // SMTFETCH_CORE_EXEC_HH
