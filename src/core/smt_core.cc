#include "core/smt_core.hh"

#include <algorithm>

#include "sim/checkpoint.hh"

#include "core/stages/commit_stage.hh"
#include "core/stages/decode_stage.hh"
#include "core/stages/dispatch_stage.hh"
#include "core/stages/execute_stage.hh"
#include "core/stages/fetch_stage.hh"
#include "core/stages/issue_stage.hh"
#include "core/stages/predict_stage.hh"
#include "core/stages/rename_stage.hh"
#include "core/stages/writeback_stage.hh"
#include "util/logging.hh"

namespace smt
{

SmtCore::SmtCore(const CoreParams &params)
    : coreParams(params), memHierarchy(params.memory),
      fetchEngine(makeEngine(params.engine, params.engineParams)),
      fetchPolicy(makePolicy(params.policy)),
      // A thread's in-flight instructions (fetched-but-undispatched
      // included) live in the fetch buffer, the decode and rename
      // latches, or count against robEntries — that sum bounds the
      // per-thread ring.
      rob(params.numThreads,
          params.robEntries + params.fetchBufferSize +
              2 * params.decodeWidth),
      rename(params.physIntRegs, params.physFpRegs, params.numThreads),
      iqs(params.intIqEntries, params.ldstIqEntries,
          params.fpIqEntries),
      exec(coreParams, memHierarchy),
      front(std::make_unique<FrontEnd>(coreParams, *fetchEngine,
                                       memHierarchy, *fetchPolicy, rob,
                                       simStats)),
      state(coreParams, memHierarchy, *fetchEngine, rob, rename, iqs,
            exec, *front, simStats)
{
    coreParams.validate();
    state.commitHook = &commitHook;
    buildStages();
    registerStats();
}

void
SmtCore::buildStages()
{
    // Back-of-pipe first: each stage consumes what its upstream
    // neighbour produced on an earlier cycle, so no latch
    // double-buffering is needed.
    graph.add(std::make_unique<ExecuteStage>(state));
    graph.add(std::make_unique<WritebackStage>(state));
    graph.add(std::make_unique<CommitStage>(state));
    graph.add(std::make_unique<IssueStage>(state));
    graph.add(std::make_unique<DispatchStage>(state));
    graph.add(std::make_unique<RenameStage>(state));
    graph.add(std::make_unique<DecodeStage>(state));
    graph.add(std::make_unique<FetchStage>(state));
    graph.add(std::make_unique<PredictStage>(state));
}

void
SmtCore::registerStats()
{
    statsRegistry.addCounter("sim.cycles", "simulated cycles",
                             &simStats.cycles);
    statsRegistry.addCounter("sim.instsSquashed",
                             "instructions squashed",
                             &simStats.instsSquashed);
    statsRegistry.addFormula("sim.ipc",
                             "commit throughput (insts per cycle)",
                             [this]() { return simStats.ipc(); });
    statsRegistry.addFormula(
        "sim.ipfc", "fetch throughput (insts per fetch cycle)",
        [this]() { return simStats.ipfc(); });
    statsRegistry.addFormula(
        "sim.branchMispredictRate",
        "mispredicts per committed CTI",
        [this]() { return simStats.branchMispredictRate(); });
    // Cycle-skip telemetry: simulation-speed counters, not
    // architecture. Tests comparing skip-on vs skip-off registry
    // dumps exclude exactly the sim.cycleSkip.* prefix.
    statsRegistry.addCounter("sim.cycleSkip.cyclesSkipped",
                             "cycles fast-forwarded instead of ticked",
                             &simStats.cyclesSkipped);
    statsRegistry.addCounter("sim.cycleSkip.sleepEvents",
                             "quiescent spans fast-forwarded",
                             &simStats.sleepEvents);
    statsRegistry.addCounter("sim.cycleSkip.maxSkipSpan",
                             "longest single fast-forward jump",
                             &simStats.maxSkipSpan);
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        statsRegistry.addFormula(
            csprintf("sim.thread%u.ipc", t),
            csprintf("thread %u commit throughput", t),
            [this, tid]() { return simStats.threadIpc(tid); });
    }

    graph.registerStats(statsRegistry);
    fetchEngine->registerStats(statsRegistry);
    memHierarchy.registerStats(statsRegistry, coreParams.numThreads);
}

void
SmtCore::setThread(ThreadID tid, TraceSource *trace,
                   const BenchmarkImage *image)
{
    if (static_cast<unsigned>(tid) >= coreParams.numThreads)
        fatal("thread id %d out of range", tid);
    front->setThread(tid, trace, image);
}

void
SmtCore::cycle()
{
    graph.tick();
    ++state.currentCycle;
    ++simStats.cycles;
}

bool
SmtCore::quiescentAt(Cycle now)
{
    const unsigned n = coreParams.numThreads;

    // Execute/writeback: a completion (stale squashed entries
    // included — writeback drains them) makes this cycle live.
    if (exec.pendingAt(now))
        return false;

    for (unsigned t = 0; t < n; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);

        // Commit: a Done ROB head retires this cycle.
        if (!rob.empty(tid) && rob.head(tid).stage == InstStage::Done)
            return false;

        // Decode: fetch buffer drains into a non-full decode latch.
        if (state.fetchBuffer.front(tid) != nullptr &&
            state.decodeQ[t].size() < coreParams.decodeWidth)
            return false;

        // Rename: decode latch drains into a non-full rename latch.
        if (!state.decodeQ[t].empty() &&
            state.renameQ[t].size() < coreParams.decodeWidth)
            return false;

        // Dispatch: the thread's head instruction moves unless it
        // hits a structural hazard (mirrors DispatchStage::tick).
        if (!state.renameQ[t].empty()) {
            DynInst *inst = state.renameQ[t].front();
            bool needs_reg =
                inst->si != nullptr && inst->si->dst != invalidReg;
            bool blocked =
                state.robCount[t] >= coreParams.robEntries ||
                !iqs.hasSpace(iqClassFor(inst->op)) ||
                (needs_reg && !rename.canAllocate(usesFpRegs(inst->op)));
            if (!blocked)
                return false;
        }
    }

    // Predict: some thread is eligible for a block prediction.
    if (!front->predictQuiescent(now))
        return false;

    // Fetch: with room for a fetch group, some thread would access
    // the I-cache. (Buffer-full cycles only bump a counter, which
    // skipTo folds across the span.)
    if (state.fetchBuffer.free() >= coreParams.fetchWidth &&
        !front->fetchQuiescent(now))
        return false;

    // Issue: a waiting instruction with ready sources would issue.
    // The scan is the most expensive check, so it runs last.
    return !iqs.hasReady(rename);
}

Cycle
SmtCore::nextWakeCycle(Cycle now, Cycle limit) const
{
    Cycle wake = limit;
    if (Cycle e = exec.nextEventCycle(now); e > now && e < wake)
        wake = e;
    if (Cycle d = front->nextDeadlineAfter(now); d > now && d < wake)
        wake = d;
    return wake;
}

void
SmtCore::skipTo(Cycle target)
{
    const Cycle span = target - state.currentCycle;
    const unsigned n = coreParams.numThreads;

    state.currentCycle = target;
    simStats.cycles += span;

    // Fold the per-tick side effects of the otherwise-dead stages:
    // the commit/front rotation counters advance unconditionally,
    // and a full fetch buffer charges fetchBufferFullCycles.
    state.commitRotate =
        static_cast<unsigned>((state.commitRotate + span) % n);
    state.frontRotate =
        static_cast<unsigned>((state.frontRotate + span) % n);
    if (state.fetchBuffer.free() < coreParams.fetchWidth)
        simStats.fetchBufferFullCycles += span;

    simStats.cyclesSkipped += span;
    ++simStats.sleepEvents;
    if (span > simStats.maxSkipSpan)
        simStats.maxSkipSpan = span;
}

void
SmtCore::run(Cycle cycles)
{
    if (!coreParams.cycleSkip) {
        for (Cycle i = 0; i < cycles; ++i)
            cycle();
        return;
    }
    const Cycle end = state.currentCycle + cycles;
    while (state.currentCycle < end) {
        if (quiescentAt(state.currentCycle)) {
            // Nothing can happen until the next event; jump there
            // (clamped to the window so a run() boundary — e.g. the
            // warmup/measure split — lands on the same cycle as the
            // ticked loop would).
            skipTo(nextWakeCycle(state.currentCycle, end));
            continue;
        }
        cycle();
    }
}

void
SmtCore::resetStats()
{
    simStats.reset();
    memHierarchy.resetStats();
    fetchEngine->resetStats();
    statsRegistry.resetOwned();
}

void
SmtCore::dumpPipeline(std::ostream &os) const
{
    Rob &mrob = const_cast<Rob &>(rob);
    RenameUnit &mren = const_cast<RenameUnit &>(rename);
    static const char *stage_names[] = {"Fetched", "Decoded",
                                        "Renamed", "Dispatched",
                                        "Issued", "Done"};
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        os << "thread " << t << " inflight=" << mrob.size(tid) << '\n';
        std::size_t limit = std::min<std::size_t>(mrob.size(tid), 40);
        for (std::size_t i = 0; i < limit; ++i) {
            DynInst *inst = &mrob.at(tid, i);
            bool fp = usesFpRegs(inst->op);
            os << "  seq=" << inst->seq << " pc=0x" << std::hex
               << inst->pc << std::dec << " op="
               << std::string(opName(inst->op))
               << " stage=" << stage_names[static_cast<int>(inst->stage)]
               << " wp=" << inst->wrongPath
               << " s1=" << inst->physSrc1 << "("
               << mren.isReady(inst->physSrc1, fp) << ")"
               << " s2=" << inst->physSrc2 << "("
               << mren.isReady(inst->physSrc2, fp) << ")"
               << " dst=" << inst->physDst
               << " mispred=" << inst->mispredicted << '\n';
        }
    }
}

namespace
{

/**
 * DynInst codec. The thread id is implied by the per-thread ROB list
 * being (de)serialized; the StaticInst pointer round-trips as the PC,
 * re-resolved against the thread's program on restore.
 */
void
saveInst(CheckpointWriter &w, const DynInst &inst,
         const EngineCheckpoint &ckpt)
{
    w.u64(inst.seq);
    w.u64(inst.pc);
    w.b(inst.si != nullptr);
    w.u8(static_cast<std::uint8_t>(inst.op));
    w.b(inst.wrongPath);
    w.b(inst.oracleTaken);
    w.u64(inst.oracleNext);
    w.u64(inst.memAddr);
    w.b(inst.predTaken);
    w.u64(inst.predNext);
    w.b(inst.wasBlockEnd);
    w.b(inst.bogusBlockEnd);
    w.b(inst.mispredicted);
    ckpt.save(w);
    w.i16(inst.physSrc1);
    w.i16(inst.physSrc2);
    w.i16(inst.physDst);
    w.i16(inst.prevPhysDst);
    w.i16(inst.archDst);
    w.b(inst.dstIsFp);
    w.u8(static_cast<std::uint8_t>(inst.stage));
    w.b(inst.inIcount);
    w.u64(inst.dispatchStamp);
    w.u64(inst.fetchCycle);
    w.u64(inst.traceIndex);
}

/** invalidReg or [0, bound): anything else would index the rename
 *  scoreboards out of bounds once the instruction executes. */
void
checkRegIndex(CheckpointReader &r, RegIndex reg, unsigned bound,
              const char *what)
{
    if (reg != invalidReg &&
        (reg < 0 || static_cast<unsigned>(reg) >= bound))
        r.fail(csprintf("instruction %s register %d out of range "
                        "[0, %u) (corrupt payload)",
                        what, (int)reg, bound));
}

void
restoreInst(CheckpointReader &r, DynInst &inst, EngineCheckpoint &ckpt,
            const StaticProgram &program, const CoreParams &params)
{
    inst.seq = r.u64();
    inst.pc = r.u64();
    bool has_si = r.b();
    inst.si = program.lookup(inst.pc);
    if (has_si != (inst.si != nullptr))
        r.fail(csprintf("instruction at pc 0x%llx is%s mapped in the "
                        "rebuilt program but was%s at save time — "
                        "the checkpoint does not match this workload "
                        "image",
                        (unsigned long long)inst.pc,
                        inst.si != nullptr ? "" : " not",
                        has_si ? "" : " not"));
    inst.op = checkpointReadOpClass(r);
    inst.wrongPath = r.b();
    inst.oracleTaken = r.b();
    inst.oracleNext = r.u64();
    inst.memAddr = r.u64();
    inst.predTaken = r.b();
    inst.predNext = r.u64();
    inst.wasBlockEnd = r.b();
    inst.bogusBlockEnd = r.b();
    inst.mispredicted = r.b();
    ckpt.restore(r, params.engineParams.rasEntries);
    inst.physSrc1 = r.i16();
    inst.physSrc2 = r.i16();
    inst.physDst = r.i16();
    inst.prevPhysDst = r.i16();
    inst.archDst = r.i16();
    inst.dstIsFp = r.b();
    unsigned src_bound = usesFpRegs(inst.op) ? params.physFpRegs
                                             : params.physIntRegs;
    unsigned dst_bound =
        inst.dstIsFp ? params.physFpRegs : params.physIntRegs;
    unsigned arch_bound =
        inst.dstIsFp ? numArchFpRegs : numArchIntRegs;
    checkRegIndex(r, inst.physSrc1, src_bound, "source 1");
    checkRegIndex(r, inst.physSrc2, src_bound, "source 2");
    checkRegIndex(r, inst.physDst, dst_bound, "destination");
    checkRegIndex(r, inst.prevPhysDst, dst_bound,
                  "previous destination");
    checkRegIndex(r, inst.archDst, arch_bound,
                  "architectural destination");
    std::uint8_t stage = r.u8();
    if (stage > static_cast<std::uint8_t>(InstStage::Done))
        r.fail(csprintf("instruction stage byte holds %u (corrupt "
                        "payload)",
                        stage));
    inst.stage = static_cast<InstStage>(stage);
    inst.inIcount = r.b();
    inst.dispatchStamp = r.u64();
    inst.fetchCycle = r.u64();
    inst.traceIndex = r.u64();
}

/** Serialize one per-thread latch queue as sequence numbers. */
void
saveLatchQueue(CheckpointWriter &w, const RingBuffer<DynInst *> &q)
{
    w.u32(static_cast<std::uint32_t>(q.size()));
    for (std::size_t i = 0; i < q.size(); ++i)
        w.u64(q[i]->seq);
}

void
restoreLatchQueue(CheckpointReader &r, RingBuffer<DynInst *> &q,
                  Rob &rob, ThreadID tid, const char *what)
{
    std::uint32_t n =
        static_cast<std::uint32_t>(r.checkCount(r.u32(), 8, what));
    if (n > q.capacity())
        r.fail(csprintf("%s latch holds %u entries but this "
                        "configuration caps it at %u",
                        what, n, q.capacity()));
    q.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        InstSeqNum seq = r.u64();
        DynInst *inst = rob.find(tid, seq);
        if (inst == nullptr)
            r.fail(csprintf("%s latch references instruction "
                            "(thread %d, seq %llu) that is not in "
                            "the restored ROB (corrupt reference)",
                            what, (int)tid,
                            (unsigned long long)seq));
        q.push_back(inst);
    }
}

} // namespace

void
SmtCore::saveState(CheckpointWriter &w) const
{
    const unsigned threads = coreParams.numThreads;
    const std::uint32_t sections_before = w.componentsWritten();

    w.begin("core.rob");
    w.u32(threads);
    for (unsigned t = 0; t < threads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        w.u64(rob.nextSeqOf(tid));
        w.u32(static_cast<std::uint32_t>(rob.size(tid)));
        for (std::size_t i = 0; i < rob.size(tid); ++i) {
            const DynInst &inst = rob.at(tid, i);
            saveInst(w, inst, rob.ckptOf(inst));
        }
    }
    w.end();

    w.begin("core.state");
    w.u64(state.currentCycle);
    w.u64(state.stampCounter);
    w.u32(state.commitRotate);
    w.u32(state.frontRotate);
    for (unsigned t = 0; t < maxThreads; ++t)
        w.u32(state.icounts[t]);
    for (unsigned t = 0; t < maxThreads; ++t)
        w.u32(state.robCount[t]);
    w.u32(state.fetchBuffer.capacity);
    for (unsigned t = 0; t < threads; ++t) {
        saveLatchQueue(w, state.fetchBuffer.q[t]);
        saveLatchQueue(w, state.decodeQ[t]);
        saveLatchQueue(w, state.renameQ[t]);
    }
    w.end();

    w.begin("core.rename");
    rename.save(w);
    w.end();

    w.begin("core.iq");
    iqs.save(w);
    w.end();

    w.begin("core.exec");
    exec.save(w);
    w.end();

    w.begin("core.front");
    front->save(w);
    w.end();

    w.begin("core.stats");
    simStats.save(w);
    w.end();

    w.begin(fetchEngine->checkpointTag());
    fetchEngine->save(w);
    w.end();

    w.begin("mem");
    memHierarchy.save(w);
    w.end();

    if (w.componentsWritten() - sections_before != checkpointSections)
        panic("SmtCore::saveState wrote %u sections, expected %u "
              "(update SmtCore::checkpointSections)",
              w.componentsWritten() - sections_before,
              checkpointSections);
}

void
SmtCore::restoreState(CheckpointReader &r)
{
    const unsigned threads = coreParams.numThreads;

    r.begin("core.rob");
    std::uint32_t saved_threads = r.u32();
    if (saved_threads != threads)
        r.fail(csprintf("checkpoint covers %u threads but this "
                        "configuration uses %u (configuration "
                        "mismatch)",
                        saved_threads, threads));
    rob.reset();
    for (unsigned t = 0; t < threads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        const BenchmarkImage *image = front->threadImage(tid);
        if (image == nullptr)
            r.fail(csprintf("thread %u has no bound image — restore "
                            "requires setThread first",
                            t));
        InstSeqNum next_seq = r.u64();
        // The per-thread list holds every in-flight instruction,
        // fetched-but-undispatched ones included, so it can exceed
        // robEntries — but never the ring capacity the same
        // configuration computes.
        std::uint32_t n = static_cast<std::uint32_t>(
            r.checkCount(r.u32(), 64, "ROB instruction"));
        if (n > rob.capacity())
            r.fail(csprintf("thread %u ROB holds %u instructions but "
                            "this configuration caps it at %u",
                            t, n, rob.capacity()));
        InstSeqNum prev_seq = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            DynInst &inst = rob.create(tid);
            restoreInst(r, inst, rob.ckptOf(inst), image->program,
                        coreParams);
            inst.tid = tid;
            if (inst.seq <= prev_seq)
                r.fail(csprintf("thread %u ROB sequence numbers not "
                                "strictly increasing (corrupt "
                                "payload)",
                                t));
            prev_seq = inst.seq;
        }
        if (next_seq <= prev_seq)
            r.fail(csprintf("thread %u next sequence %llu not past "
                            "the youngest in-flight instruction",
                            t, (unsigned long long)next_seq));
        rob.setNextSeq(tid, next_seq);
    }
    r.end();

    r.begin("core.state");
    state.currentCycle = r.u64();
    state.stampCounter = r.u64();
    state.commitRotate = r.u32();
    state.frontRotate = r.u32();
    for (unsigned t = 0; t < maxThreads; ++t)
        state.icounts[t] = r.u32();
    for (unsigned t = 0; t < maxThreads; ++t)
        state.robCount[t] = r.u32();
    std::uint32_t buffer_cap = r.u32();
    if (buffer_cap != state.fetchBuffer.capacity)
        r.fail(csprintf("fetch buffer capacity %u does not match "
                        "this configuration's %u",
                        buffer_cap, state.fetchBuffer.capacity));
    state.fetchBuffer.clear();
    for (unsigned t = 0; t < threads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        restoreLatchQueue(r, state.fetchBuffer.q[t], rob, tid,
                          "fetch buffer");
        state.fetchBuffer.total += static_cast<unsigned>(
            state.fetchBuffer.q[t].size());
        restoreLatchQueue(r, state.decodeQ[t], rob, tid, "decode");
        restoreLatchQueue(r, state.renameQ[t], rob, tid, "rename");
    }
    if (state.fetchBuffer.total > state.fetchBuffer.capacity)
        r.fail(csprintf("fetch buffer holds %u instructions but is "
                        "capped at %u",
                        state.fetchBuffer.total,
                        state.fetchBuffer.capacity));
    // Per-cycle scratch is produced and consumed within one tick;
    // a checkpoint sits on a cycle boundary, so it starts empty.
    state.completionScratch.clear();
    state.issueScratch.clear();
    r.end();

    r.begin("core.rename");
    rename.restore(r);
    r.end();

    r.begin("core.iq");
    iqs.restore(r, rob);
    r.end();

    r.begin("core.exec");
    exec.restore(r);
    r.end();

    r.begin("core.front");
    front->restore(r);
    r.end();

    r.begin("core.stats");
    simStats.restore(r);
    r.end();

    r.begin(fetchEngine->checkpointTag());
    fetchEngine->restore(r);
    r.end();

    r.begin("mem");
    memHierarchy.restore(r);
    r.end();

    checkIcountInvariant();
}

void
SmtCore::checkIcountInvariant() const
{
    // Every in-flight instruction lives in the ROB rings, and the
    // inIcount flag marks membership in the ICOUNT front section, so
    // an ROB walk recomputes the counters exactly.
    Rob &mrob = const_cast<Rob &>(rob);
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        std::uint32_t n = 0;
        for (std::size_t i = 0; i < mrob.size(tid); ++i)
            if (mrob.at(tid, i).inIcount)
                ++n;
        if (n != state.icounts[t])
            panic("icount invariant broken: thread %u has %u counted "
                  "vs tracked %u",
                  t, n, state.icounts[t]);
    }
}

} // namespace smt
