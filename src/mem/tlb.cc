#include "mem/tlb.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace smt
{

Tlb::Tlb(std::string name, unsigned num_entries, unsigned page_bytes,
         Cycle miss_penalty)
    : name(std::move(name)), pageBytes(page_bytes),
      missPenalty(miss_penalty)
{
    if (num_entries == 0)
        fatal("TLB must have at least one entry");
    entries.assign(num_entries, Entry{});
}

Cycle
Tlb::access(ThreadID tid, Addr vaddr)
{
    ++tlbStats.accesses;
    std::uint64_t vpn = vpnOf(vaddr);

    std::uint32_t &hint = hints[hintSlot(tid, vpn)];
    if (Entry &e = entries[hint]; matches(e, tid, vpn)) {
        e.lru = ++lruClock;
        return 0;
    }

    Entry *victim = &entries[0];
    for (auto &e : entries) {
        if (matches(e, tid, vpn)) {
            e.lru = ++lruClock;
            hint = static_cast<std::uint32_t>(&e - entries.data());
            return 0;
        }
        if (!e.valid)
            victim = &e;
        else if (victim->valid && e.lru < victim->lru)
            victim = &e;
    }

    ++tlbStats.misses;
    victim->valid = true;
    victim->tid = tid;
    victim->vpn = vpn;
    victim->lru = ++lruClock;
    hint = static_cast<std::uint32_t>(victim - entries.data());
    return missPenalty;
}

bool
Tlb::wouldHit(ThreadID tid, Addr vaddr) const
{
    std::uint64_t vpn = vpnOf(vaddr);
    for (const auto &e : entries)
        if (matches(e, tid, vpn))
            return true;
    return false;
}

void
Tlb::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".accesses", "translations requested",
                   &tlbStats.accesses);
    reg.addCounter(prefix + ".misses", "page-walk misses",
                   &tlbStats.misses);
    reg.addFormula(prefix + ".missRate", "misses per access",
                   [this]() { return tlbStats.missRate(); });
}

void
Tlb::reset()
{
    for (auto &e : entries)
        e = Entry{};
    lruClock = 0;
    tlbStats = TlbStats{};
}

void
Tlb::save(CheckpointWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(entries.size()));
    w.u64(lruClock);
    for (const Entry &e : entries) {
        w.b(e.valid);
        w.i16(e.tid);
        w.u64(e.vpn);
        w.u64(e.lru);
    }
    w.u64(tlbStats.accesses);
    w.u64(tlbStats.misses);
}

void
Tlb::restore(CheckpointReader &r)
{
    std::uint32_t n = r.u32();
    if (n != entries.size())
        r.fail(csprintf("%s holds %u entries but this configuration "
                        "uses %zu (configuration mismatch)",
                        name.c_str(), n, entries.size()));
    lruClock = r.u64();
    for (Entry &e : entries) {
        e.valid = r.b();
        e.tid = r.i16();
        e.vpn = r.u64();
        e.lru = r.u64();
    }
    tlbStats.accesses = r.u64();
    tlbStats.misses = r.u64();
}

} // namespace smt
