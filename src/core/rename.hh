/**
 * @file
 * Register rename unit: per-thread map tables, shared physical
 * register free lists (384 int + 384 fp in Table 3), and the
 * readiness scoreboard used by the issue queues.
 *
 * No values are tracked (the simulator is trace driven); renaming
 * exists to model the structural pressure wrong-path and stalled
 * instructions put on the shared register files.
 */

#ifndef SMTFETCH_CORE_RENAME_HH
#define SMTFETCH_CORE_RENAME_HH

#include <cstdint>
#include <vector>

#include "core/dyn_inst.hh"
#include "util/types.hh"

namespace smt
{

/** Does this op class write/read floating-point registers? */
constexpr bool
usesFpRegs(OpClass op)
{
    return op == OpClass::FpAlu;
}

class CheckpointReader;
class CheckpointWriter;

/** Shared-physical-register rename engine. */
class RenameUnit
{
  public:
    RenameUnit(unsigned phys_int, unsigned phys_fp,
               unsigned num_threads);

    /** Is a destination register available in the needed class? */
    bool canAllocate(bool fp) const;

    /**
     * Rename an instruction in program order: translate sources via
     * the current map, then allocate and map the destination.
     * Requires canAllocate() when the instruction has a destination.
     */
    void rename(DynInst &inst);

    /** Commit: the previous mapping of the dest becomes dead. */
    void commit(DynInst &inst);

    /**
     * Squash rollback (must be called youngest-first): restore the
     * previous mapping and free the allocated register.
     */
    void rollback(DynInst &inst);

    /** Mark a physical register's value available (writeback). */
    void markReady(RegIndex phys, bool fp);

    /** Is the operand available? invalidReg counts as ready. */
    bool
    isReady(RegIndex phys, bool fp) const
    {
        if (phys == invalidReg)
            return true;
        return (fp ? readyFp[phys] : readyInt[phys]) != 0;
    }

    /** Are all of an instruction's sources ready? */
    bool
    sourcesReady(const DynInst &inst) const
    {
        bool fp = usesFpRegs(inst.op);
        return isReady(inst.physSrc1, fp) && isReady(inst.physSrc2, fp);
    }

    unsigned freeIntRegs() const
    {
        return static_cast<unsigned>(freeInt.size());
    }
    unsigned freeFpRegs() const
    {
        return static_cast<unsigned>(freeFp.size());
    }

    void reset(unsigned num_threads);

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    unsigned physIntCount;
    unsigned physFpCount;

    /** map[thread][arch] -> phys, per class. */
    std::vector<std::vector<RegIndex>> intMap;
    std::vector<std::vector<RegIndex>> fpMap;

    std::vector<RegIndex> freeInt;
    std::vector<RegIndex> freeFp;

    /** Ready scoreboards, one byte per physical register (polled by
     *  every issue-queue scan, so kept byte-addressable). */
    std::vector<std::uint8_t> readyInt;
    std::vector<std::uint8_t> readyFp;
};

} // namespace smt

#endif // SMTFETCH_CORE_RENAME_HH
