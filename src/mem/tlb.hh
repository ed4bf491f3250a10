/**
 * @file
 * Simple fully-associative TLB timing model: a fixed-capacity LRU set
 * of (thread, virtual page) entries with a constant page-walk penalty
 * on miss.
 *
 * A lookup first tries a hint: a small direct-mapped table from a hash
 * of (thread, page) to the entry where that translation was last found
 * or installed. Entries are unique per (thread, page), so a hint that
 * still names a matching entry is exactly the entry the full scan
 * would find; any other hint falls through to the scan. Hints are
 * derived state: they are neither serialized nor cleared, and change
 * no result, only how fast a hit is found.
 */

#ifndef SMTFETCH_MEM_TLB_HH
#define SMTFETCH_MEM_TLB_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class StatsRegistry;

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/** Paper configuration: 48-entry I-TLB, 128-entry D-TLB, 8KB pages. */
class Tlb
{
  public:
    Tlb(std::string name, unsigned entries, unsigned page_bytes,
        Cycle miss_penalty);

    /**
     * Translate; @return extra cycles charged (0 on hit, the page-walk
     * penalty on miss).
     */
    Cycle access(ThreadID tid, Addr vaddr);

    bool wouldHit(ThreadID tid, Addr vaddr) const;

    const TlbStats &stats() const { return tlbStats; }

    /** Register this TLB's counters under "<prefix>.*". */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    void reset();
    void resetStats() { tlbStats = TlbStats{}; }

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        ThreadID tid = invalidThread;
        std::uint64_t vpn = 0;
        std::uint64_t lru = 0;
    };

    std::uint64_t vpnOf(Addr vaddr) const { return vaddr / pageBytes; }

    /** Hint-table slots (a power of two). */
    static constexpr unsigned hintSlots = 512;

    static unsigned
    hintSlot(ThreadID tid, std::uint64_t vpn)
    {
        std::uint64_t key = (vpn << 3) ^ static_cast<std::uint64_t>(tid);
        return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >> 55);
    }

    /** Does entry @p e translate (tid, vpn)? */
    static bool
    matches(const Entry &e, ThreadID tid, std::uint64_t vpn)
    {
        return e.valid && e.tid == tid && e.vpn == vpn;
    }

    std::string name;
    unsigned pageBytes;
    Cycle missPenalty;
    std::uint64_t lruClock = 0;
    std::vector<Entry> entries;
    TlbStats tlbStats;

    /** Entry index last holding the translation hashed to each slot
     *  (always a valid index; verified before use). */
    std::array<std::uint32_t, hintSlots> hints{};
};

} // namespace smt

#endif // SMTFETCH_MEM_TLB_HH
