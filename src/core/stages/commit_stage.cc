#include "core/stages/commit_stage.hh"

#include "bpred/fetch_engine.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "mem/hierarchy.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace smt
{

void
CommitStage::tick()
{
    unsigned budget = st.params.commitWidth;
    unsigned n = st.params.numThreads;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        ThreadID tid = static_cast<ThreadID>((st.commitRotate + i) % n);
        while (budget > 0 && !st.rob.empty(tid)) {
            DynInst &head = st.rob.head(tid);
            if (head.stage != InstStage::Done)
                break;
            commitInst(head);
            st.rob.popHead(tid);
            --budget;
        }
    }
    st.commitRotate = (st.commitRotate + 1) % n;
}

void
CommitStage::commitInst(DynInst &inst)
{
    if (inst.wrongPath)
        panic("wrong-path instruction reached commit (tid %d seq %llu)",
              inst.tid, (unsigned long long)inst.seq);

    if (inst.si != nullptr && inst.si->isControl()) {
        ++st.stats.committedCtis;
        if (inst.si->isConditional())
            ++st.stats.committedCond;
        if (inst.oracleTaken)
            ++st.stats.committedTaken;
        st.engine.commitCti(inst.tid, *inst.si, inst.oracleTaken,
                            inst.oracleNext, inst.wasBlockEnd,
                            inst.mispredicted,
                            st.rob.ckptOf(inst).ghist);
    }
    if (inst.isLoad())
        ++st.stats.committedLoads;
    if (inst.isStore()) {
        ++st.stats.committedStores;
        // Store data is written back at commit; the write never
        // blocks retirement (post-commit store buffer).
        st.memory.dcacheAccess(inst.tid, inst.memAddr, true,
                               st.currentCycle);
    }

    st.rename.commit(inst);
    --st.robCount[inst.tid];
    ++st.stats.instsCommitted;
    ++st.stats.threadCommitted[inst.tid];

    if (st.commitHook != nullptr && *st.commitHook)
        (*st.commitHook)(inst);
}

void
CommitStage::registerStats(StatsRegistry &reg)
{
    reg.addCounter("commit.insts", "instructions committed",
                   &st.stats.instsCommitted);
    reg.addCounter("commit.ctis", "committed control instructions",
                   &st.stats.committedCtis);
    reg.addCounter("commit.cond", "committed conditional branches",
                   &st.stats.committedCond);
    reg.addCounter("commit.taken", "committed taken CTIs",
                   &st.stats.committedTaken);
    reg.addCounter("commit.loads", "committed loads",
                   &st.stats.committedLoads);
    reg.addCounter("commit.stores", "committed stores",
                   &st.stats.committedStores);
    for (unsigned t = 0; t < st.params.numThreads; ++t) {
        reg.addCounter(csprintf("commit.thread%u.insts", t),
                       csprintf("instructions committed by thread %u", t),
                       &st.stats.threadCommitted[t]);
    }
}

} // namespace smt
