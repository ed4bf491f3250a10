/**
 * @file
 * Tests for the memory hierarchy: cache geometry, LRU, banking, MSHR
 * merging, multi-level latencies and TLBs.
 */

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace smt
{
namespace
{

CacheParams
smallCache(const char *name, unsigned size, unsigned ways,
           Cycle hit_lat)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = size;
    p.ways = ways;
    p.lineBytes = 64;
    p.banks = 8;
    p.hitLatency = hit_lat;
    p.mshrs = 8;
    return p;
}

TEST(CacheTest, HitAfterMissSettles)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    Cycle lat = c.access(0x1000, false, 0);
    EXPECT_EQ(lat, 101u); // 1 (hit path) + 100 memory
    // After the fill completes, it hits.
    EXPECT_EQ(c.access(0x1000, false, 200), 1u);
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, MshrMergeWhileInFlight)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    c.access(0x1000, false, 0); // ready at 101
    Cycle lat = c.access(0x1008, false, 50); // same line, in flight
    EXPECT_EQ(lat, 51u + 1u); // remaining 51 + hit latency
    EXPECT_EQ(c.stats().mshrMerges, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, LruWithinSet)
{
    // 2 ways, 32 sets: addresses 32 lines apart share a set.
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    Addr set_stride = 32 * 64;
    c.access(0x0000, false, 0);
    c.access(set_stride, false, 200);
    c.access(0x0000, false, 400);          // touch: set_stride is LRU
    c.access(2 * set_stride, false, 600);  // evicts set_stride
    EXPECT_EQ(c.access(0x0000, false, 800), 1u);
    EXPECT_GT(c.access(set_stride, false, 1000), 1u); // miss again
}

TEST(CacheTest, BankMapping)
{
    Cache c(smallCache("L", 32 * 1024, 2, 1), nullptr, 100);
    EXPECT_EQ(c.bankOf(0x0000), 0u);
    EXPECT_EQ(c.bankOf(0x0040), 1u);
    EXPECT_EQ(c.bankOf(0x01c0), 7u);
    EXPECT_EQ(c.bankOf(0x0200), 0u); // wraps at 8 banks
}

TEST(CacheTest, WritesCountedAndAllocate)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    c.access(0x2000, true, 0);
    EXPECT_EQ(c.stats().writeAccesses, 1u);
    EXPECT_EQ(c.access(0x2000, false, 200), 1u); // write-allocated
}

TEST(CacheTest, ResetClearsState)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    c.access(0x1000, false, 0);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_GT(c.access(0x1000, false, 0), 1u); // cold again
}

TEST(HierarchyTest, LatenciesCompose)
{
    MemoryHierarchy mem{MemoryParams{}};
    // Cold data access: DTLB walk + L1 miss + L2 miss + memory.
    Cycle first = mem.dcacheAccess(0, 0x40000000, false, 0);
    EXPECT_GT(first, 100u);
    // Warm hit: L1 latency + load-to-use.
    Cycle warm = mem.dcacheAccess(0, 0x40000000, false, 10'000);
    EXPECT_LE(warm, 4u);
}

TEST(HierarchyTest, L2SharedBetweenIAndD)
{
    MemoryHierarchy mem{MemoryParams{}};
    mem.icacheAccess(0, 0x40000000, 0); // fills L2 line
    std::uint64_t l2_misses = mem.l2().stats().misses;
    // Same line via the D side after L1I warmed L2: L2 should hit.
    mem.dcacheAccess(0, 0x40000000, false, 10'000);
    EXPECT_EQ(mem.l2().stats().misses, l2_misses);
}

TEST(HierarchyTest, IcacheReadyProbe)
{
    MemoryHierarchy mem{MemoryParams{}};
    EXPECT_FALSE(mem.icacheReady(0x400000));
    mem.icacheAccess(0, 0x400000, 0);
    EXPECT_TRUE(mem.icacheReady(0x400000));
}

TEST(TlbTest, HitAfterWalk)
{
    Tlb tlb("T", 4, 8192, 30);
    EXPECT_EQ(tlb.access(0, 0x10000), 30u);
    EXPECT_EQ(tlb.access(0, 0x10100), 0u); // same page
    EXPECT_EQ(tlb.access(0, 0x12000), 30u); // next page
}

TEST(TlbTest, PerThreadTagging)
{
    Tlb tlb("T", 8, 8192, 30);
    tlb.access(0, 0x10000);
    EXPECT_FALSE(tlb.wouldHit(1, 0x10000));
    EXPECT_TRUE(tlb.wouldHit(0, 0x10000));
    EXPECT_EQ(tlb.access(1, 0x10000), 30u);
}

TEST(TlbTest, LruReplacement)
{
    Tlb tlb("T", 2, 8192, 30);
    tlb.access(0, 0x00000);
    tlb.access(0, 0x02000);
    tlb.access(0, 0x00000); // touch; page 0x02000 is LRU
    tlb.access(0, 0x04000); // evicts 0x02000
    EXPECT_TRUE(tlb.wouldHit(0, 0x00000));
    EXPECT_FALSE(tlb.wouldHit(0, 0x02000));
}

TEST(CacheTest, PerThreadAttributionSumsToTotals)
{
    // Shared-cache interference accounting: every access and miss is
    // attributed to exactly one thread, at every level it reaches.
    MemoryHierarchy mem{MemoryParams{}};
    for (int i = 0; i < 32; ++i) {
        ThreadID tid = static_cast<ThreadID>(i % 4);
        mem.dcacheAccess(tid, 0x1000 + 0x40 * i, (i % 5) == 0,
                         static_cast<Cycle>(i) * 200);
    }
    for (const Cache *c : {&mem.l1d(), &mem.l2()}) {
        const CacheStats &s = c->stats();
        std::uint64_t acc = 0, miss = 0;
        for (unsigned t = 0; t < maxThreads; ++t) {
            acc += s.threadAccesses[t];
            miss += s.threadMisses[t];
        }
        EXPECT_EQ(acc, s.accesses) << c->params().name;
        EXPECT_EQ(miss, s.misses) << c->params().name;
    }
    // Four threads issued accesses; the rest attributed nothing.
    for (unsigned t = 4; t < maxThreads; ++t)
        EXPECT_EQ(mem.l1d().stats().threadAccesses[t], 0u);
    EXPECT_GT(mem.l1d().stats().threadAccesses[0], 0u);
    EXPECT_GT(mem.l2().stats().threadMisses[1], 0u);
}

TEST(TlbTest, StatsTrackMissRate)
{
    Tlb tlb("T", 16, 8192, 30);
    for (int i = 0; i < 8; ++i)
        tlb.access(0, static_cast<Addr>(i) * 8192);
    for (int i = 0; i < 8; ++i)
        tlb.access(0, static_cast<Addr>(i) * 8192);
    EXPECT_EQ(tlb.stats().accesses, 16u);
    EXPECT_EQ(tlb.stats().misses, 8u);
    EXPECT_DOUBLE_EQ(tlb.stats().missRate(), 0.5);
}

namespace
{

/**
 * Reference TLB: the plain linear-scan lookup, with no hint table.
 * Tlb must match it access for access, including the victim choice
 * (first invalid entry from the end, else the oldest LRU stamp) and
 * the checkpoint payload.
 */
struct RefTlb
{
    struct Entry
    {
        bool valid = false;
        ThreadID tid = invalidThread;
        std::uint64_t vpn = 0;
        std::uint64_t lru = 0;
    };

    RefTlb(unsigned n, unsigned page, Cycle penalty)
        : entries(n), pageBytes(page), missPenalty(penalty)
    {
    }

    Cycle
    access(ThreadID tid, Addr vaddr)
    {
        ++accesses;
        std::uint64_t vpn = vaddr / pageBytes;
        Entry *victim = &entries[0];
        for (auto &e : entries) {
            if (e.valid && e.tid == tid && e.vpn == vpn) {
                e.lru = ++lruClock;
                return 0;
            }
            if (!e.valid)
                victim = &e;
            else if (victim->valid && e.lru < victim->lru)
                victim = &e;
        }
        ++misses;
        *victim = Entry{true, tid, vpn, ++lruClock};
        return missPenalty;
    }

    bool
    wouldHit(ThreadID tid, Addr vaddr) const
    {
        for (const auto &e : entries)
            if (e.valid && e.tid == tid && e.vpn == vaddr / pageBytes)
                return true;
        return false;
    }

    void
    reset()
    {
        entries.assign(entries.size(), Entry{});
        lruClock = accesses = misses = 0;
    }

    /** Same field order as Tlb::save. */
    void
    save(CheckpointWriter &w) const
    {
        w.u32(static_cast<std::uint32_t>(entries.size()));
        w.u64(lruClock);
        for (const Entry &e : entries) {
            w.b(e.valid);
            w.i16(e.tid);
            w.u64(e.vpn);
            w.u64(e.lru);
        }
        w.u64(accesses);
        w.u64(misses);
    }

    std::vector<Entry> entries;
    unsigned pageBytes;
    Cycle missPenalty;
    std::uint64_t lruClock = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

template <typename T>
std::string
savedBytes(const T &tlb)
{
    std::ostringstream os(std::ios::binary);
    CheckpointWriter w(os, "<tlb-test>", "k");
    w.begin("tlb");
    tlb.save(w);
    w.end();
    w.finish();
    return std::move(os).str();
}

void
restoreFromBytes(Tlb &tlb, const std::string &bytes)
{
    std::istringstream is(bytes, std::ios::binary);
    CheckpointReader r(is, "<tlb-test>");
    r.begin("tlb");
    tlb.restore(r);
    r.end();
    r.finish();
}

} // namespace

TEST(TlbTest, MatchesLinearScanReference)
{
    constexpr unsigned page = 8192;
    constexpr Cycle penalty = 30;
    for (unsigned size : {1u, 2u, 48u, 128u}) {
        for (unsigned threads = 1; threads <= 4; ++threads) {
            SCOPED_TRACE(csprintf("%u entries, %u threads", size,
                                  threads));
            Rng rng(size * 16 + threads);
            // More pages than entries (every thread shares the same
            // vpns), with a hot subset so that hits happen too.
            const std::uint64_t pages = 2 * size + 3;
            const std::uint64_t hot = size / 2 + 1;
            auto tlb = std::make_unique<Tlb>("T", size, page, penalty);
            RefTlb ref(size, page, penalty);
            constexpr int steps = 6000;
            for (int i = 0; i < steps; ++i) {
                ThreadID tid =
                    static_cast<ThreadID>(rng.below(threads));
                std::uint64_t vpn = rng.chance(0.7) ? rng.below(hot)
                                                    : rng.below(pages);
                Addr vaddr = vpn * page + rng.below(page);
                ASSERT_EQ(tlb->wouldHit(tid, vaddr),
                          ref.wouldHit(tid, vaddr))
                    << "step " << i;
                ASSERT_EQ(tlb->access(tid, vaddr),
                          ref.access(tid, vaddr))
                    << "step " << i;

                if (i == steps / 3) {
                    // Restore into a fresh TLB (hints all zero) ...
                    std::string bytes = savedBytes(*tlb);
                    ASSERT_EQ(bytes, savedBytes(ref));
                    tlb = std::make_unique<Tlb>("T", size, page,
                                                penalty);
                    restoreFromBytes(*tlb, bytes);
                } else if (i == steps / 2) {
                    // ... and into one whose hints describe another
                    // stream's entries.
                    std::string bytes = savedBytes(*tlb);
                    auto other =
                        std::make_unique<Tlb>("T", size, page, penalty);
                    for (int k = 0; k < 500; ++k)
                        other->access(
                            static_cast<ThreadID>(rng.below(threads)),
                            rng.below(pages) * page);
                    restoreFromBytes(*other, bytes);
                    tlb = std::move(other);
                } else if (i == 2 * steps / 3) {
                    tlb->reset();
                    ref.reset();
                }
            }
            EXPECT_EQ(tlb->stats().accesses, ref.accesses);
            EXPECT_EQ(tlb->stats().misses, ref.misses);
            EXPECT_GT(ref.misses, 0u);
            EXPECT_LT(ref.misses, ref.accesses);
            EXPECT_EQ(savedBytes(*tlb), savedBytes(ref));
            for (unsigned t = 0; t < threads; ++t)
                for (std::uint64_t v = 0; v < pages; ++v)
                    EXPECT_EQ(tlb->wouldHit(static_cast<ThreadID>(t),
                                            v * page),
                              ref.wouldHit(static_cast<ThreadID>(t),
                                           v * page));
        }
    }
}

} // namespace
} // namespace smt
