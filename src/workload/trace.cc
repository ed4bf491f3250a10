#include "workload/trace.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "workload/trace_file.hh"

namespace smt
{

const TraceRecord &
TraceSource::peek()
{
    if (nextIndex < generatedCount)
        return ring[nextIndex % replayWindow];
    ensureUpcoming();
    return upcoming;
}

const TraceRecord &
TraceSource::peekAhead(std::uint64_t offset)
{
    std::uint64_t pos = nextIndex + offset;
    if (pos < generatedCount) {
        // Replaying after a rewind: the record is still in the ring
        // (anything reachable from nextIndex is inside the window).
        return ring[pos % replayWindow];
    }
    ensureUpcoming();
    if (pos == generatedCount)
        return upcoming;
    std::uint64_t k = pos - generatedCount - 1;
    while (lookahead.size() <= k)
        lookahead.push_back(generate());
    return lookahead[k];
}

TraceRecord
TraceSource::next()
{
    if (nextIndex < generatedCount) {
        // Replaying after a rewind.
        return ring[nextIndex++ % replayWindow];
    }

    ensureUpcoming();
    TraceRecord rec = upcoming;
    haveUpcoming = false;

    ++tstats.insts;
    if (rec.si->isControl()) {
        ++tstats.ctis;
        if (rec.taken)
            ++tstats.takenCtis;
        if (rec.si->isConditional()) {
            ++tstats.condBranches;
            if (rec.taken)
                ++tstats.takenCond;
        }
    }
    if (rec.si->isLoad())
        ++tstats.loads;
    if (rec.si->isStore())
        ++tstats.stores;

    ring[generatedCount % replayWindow] = rec;
    ++generatedCount;
    ++nextIndex;

    if (recorder != nullptr)
        recorder->append(rec);

    return rec;
}

void
TraceSource::rewindTo(std::uint64_t index)
{
    if (index > nextIndex)
        panic("trace rewind forward: %llu > %llu",
              (unsigned long long)index,
              (unsigned long long)nextIndex);
    if (generatedCount - index > replayWindow)
        panic("trace rewind beyond replay window");
    nextIndex = index;
}

void
TraceSource::ensureUpcoming()
{
    if (haveUpcoming)
        return;
    if (!lookahead.empty()) {
        upcoming = lookahead.front();
        lookahead.pop_front();
    } else {
        upcoming = generate();
    }
    haveUpcoming = true;
}

namespace
{

/** TraceRecord codec: the StaticInst round-trips as its PC. */
void
saveRecord(CheckpointWriter &w, const TraceRecord &rec)
{
    w.u64(rec.si->pc);
    w.b(rec.taken);
    w.u64(rec.nextPc);
    w.u64(rec.memAddr);
}

TraceRecord
restoreRecord(CheckpointReader &r, const BenchmarkImage &img)
{
    TraceRecord rec;
    Addr pc = r.u64();
    rec.si = img.program.lookup(pc);
    if (rec.si == nullptr)
        r.fail(csprintf("trace record pc 0x%llx is not mapped in "
                        "the rebuilt program — the checkpoint does "
                        "not match this workload image",
                        (unsigned long long)pc));
    rec.taken = r.b();
    rec.nextPc = r.u64();
    rec.memAddr = r.u64();
    return rec;
}

} // namespace

void
TraceSource::saveBase(CheckpointWriter &w) const
{
    w.u64(tstats.insts);
    w.u64(tstats.ctis);
    w.u64(tstats.condBranches);
    w.u64(tstats.takenCtis);
    w.u64(tstats.takenCond);
    w.u64(tstats.loads);
    w.u64(tstats.stores);
    w.u64(generatedCount);
    w.u64(nextIndex);
    w.b(haveUpcoming);
    if (haveUpcoming)
        saveRecord(w, upcoming);
    w.u32(static_cast<std::uint32_t>(lookahead.size()));
    for (const TraceRecord &rec : lookahead)
        saveRecord(w, rec);
    // Only the live replay window is needed: squashes can rewind at
    // most replayWindow records behind the generation frontier.
    std::uint64_t window_start =
        generatedCount > replayWindow ? generatedCount - replayWindow
                                      : 0;
    w.u64(window_start);
    for (std::uint64_t i = window_start; i < generatedCount; ++i)
        saveRecord(w, ring[i % replayWindow]);
}

void
TraceSource::restoreBase(CheckpointReader &r)
{
    if (nextIndex != 0 || generatedCount != 0)
        r.fail("trace-source restore requires a freshly-constructed "
               "stream");
    tstats.insts = r.u64();
    tstats.ctis = r.u64();
    tstats.condBranches = r.u64();
    tstats.takenCtis = r.u64();
    tstats.takenCond = r.u64();
    tstats.loads = r.u64();
    tstats.stores = r.u64();
    generatedCount = r.u64();
    nextIndex = r.u64();
    haveUpcoming = r.b();
    if (haveUpcoming)
        upcoming = restoreRecord(r, img);
    std::uint32_t nla = r.u32();
    // The oracle lookahead is bounded by what one FTQ can hold; a
    // huge count means a corrupt payload, not a deep lookahead.
    if (nla > 1u << 20)
        r.fail(csprintf("trace lookahead holds %u records (corrupt "
                        "payload)",
                        nla));
    lookahead.clear();
    for (std::uint32_t i = 0; i < nla; ++i)
        lookahead.push_back(restoreRecord(r, img));
    std::uint64_t window_start = r.u64();
    std::uint64_t expected_start =
        generatedCount > replayWindow ? generatedCount - replayWindow
                                      : 0;
    if (window_start != expected_start)
        r.fail(csprintf("replay window starts at %llu, expected "
                        "%llu (corrupt payload)",
                        (unsigned long long)window_start,
                        (unsigned long long)expected_start));
    if (nextIndex > generatedCount ||
        generatedCount - nextIndex > replayWindow)
        r.fail("trace position outside the replay window (corrupt "
               "payload)");
    for (std::uint64_t i = window_start; i < generatedCount; ++i)
        ring[i % replayWindow] = restoreRecord(r, img);
}

SyntheticTraceStream::SyntheticTraceStream(const BenchmarkImage &image)
    : TraceSource(image), control(image), memModels(image.memModels)
{
}

TraceRecord
SyntheticTraceStream::generate()
{
    const StaticInst *si = img.program.lookup(control.pc);
    if (si == nullptr)
        panic("correct path left program code at 0x%llx (%s)",
              (unsigned long long)control.pc, img.profile.name.c_str());

    TraceRecord rec;
    rec.si = si;
    rec.memAddr = si->isMemory() ? memModels[si->modelId].next()
                                 : invalidAddr;
    rec.taken = control.step(*si);
    rec.nextPc = control.pc;
    return rec;
}

double
dynamicAvgBlockSize(const BenchmarkImage &image, std::uint64_t insts)
{
    const StaticProgram &prog = image.program;
    ControlWalk control(image);
    TraceStats stats;
    while (stats.insts < insts) {
        const StaticInst *si = prog.lookup(control.pc);
        if (si == nullptr)
            panic("correct path left program code at 0x%llx (%s)",
                  (unsigned long long)control.pc,
                  image.profile.name.c_str());
        const BasicBlock &bb = prog.block(si->blockIndex);
        std::uint64_t run = (bb.endPC() - control.pc) / instBytes;
        if (run > insts - stats.insts) {
            // The window ends before the terminator executes.
            stats.insts = insts;
            break;
        }
        stats.insts += run;
        const StaticInst &last = *prog.lookup(bb.lastPC());
        if (last.isControl())
            ++stats.ctis;
        control.step(last);
    }
    return stats.avgBlockSize();
}

void
SyntheticTraceStream::save(CheckpointWriter &w) const
{
    saveBase(w);
    w.u64(control.pc);
    w.u32(static_cast<std::uint32_t>(control.callStack.size()));
    for (Addr a : control.callStack)
        w.u64(a);
    w.u64(control.oracleHistory);
    w.u64(control.oraclePathSig);
    w.u32(static_cast<std::uint32_t>(control.branchModels.size()));
    for (const BranchModel &m : control.branchModels)
        m.save(w);
    w.u32(static_cast<std::uint32_t>(control.indirectModels.size()));
    for (const IndirectModel &m : control.indirectModels)
        m.save(w);
    w.u32(static_cast<std::uint32_t>(memModels.size()));
    for (const MemoryModel &m : memModels)
        m.save(w);
}

void
SyntheticTraceStream::restore(CheckpointReader &r)
{
    restoreBase(r);
    control.pc = r.u64();
    std::uint32_t depth = r.u32();
    if (depth > ControlWalk::maxCallDepth)
        r.fail(csprintf("call-stack depth %u exceeds the %zu cap",
                        depth, ControlWalk::maxCallDepth));
    control.callStack.resize(depth);
    for (Addr &a : control.callStack)
        a = r.u64();
    control.oracleHistory = r.u64();
    control.oraclePathSig = r.u64();
    auto check_models = [&r](std::uint32_t n, std::size_t have,
                             const char *what) {
        if (n != have)
            r.fail(csprintf("%s model count %u does not match the "
                            "image's %zu — the checkpoint does not "
                            "match this workload image",
                            what, n, have));
    };
    check_models(r.u32(), control.branchModels.size(), "branch");
    for (BranchModel &m : control.branchModels)
        m.restore(r);
    check_models(r.u32(), control.indirectModels.size(), "indirect");
    for (IndirectModel &m : control.indirectModels)
        m.restore(r);
    check_models(r.u32(), memModels.size(), "memory");
    for (MemoryModel &m : memModels)
        m.restore(r);
}

} // namespace smt
