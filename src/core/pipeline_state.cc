#include "core/pipeline_state.hh"

#include <algorithm>

#include "bpred/fetch_engine.hh"
#include "core/iq.hh"
#include "core/rename.hh"
#include "core/rob.hh"

namespace smt
{

PipelineState::PipelineState(const CoreParams &params,
                             MemoryHierarchy &memory, FetchEngine &engine,
                             Rob &rob, RenameUnit &rename,
                             IssueQueues &iqs, ExecUnit &exec,
                             FrontEnd &front, SimStats &stats)
    : params(params), memory(memory), engine(engine), rob(rob),
      rename(rename), iqs(iqs), exec(exec), front(front), stats(stats)
{
    fetchBuffer.setCapacity(params.fetchBufferSize);
    for (auto &q : decodeQ)
        q.setCapacity(params.decodeWidth);
    for (auto &q : renameQ)
        q.setCapacity(params.decodeWidth);
}

void
PipelineState::removeYounger(RingBuffer<DynInst *> &q, InstSeqNum seq)
{
    // The latch queues are per-thread and age-ordered, so the younger
    // instructions are exactly a suffix.
    while (!q.empty() && q.back()->seq > seq)
        q.pop_back();
}

void
PipelineState::squashAfter(DynInst &offender)
{
    ThreadID tid = offender.tid;
    InstSeqNum seq = offender.seq;

    engine.recover(tid, rob.ckptOf(offender), offender.si,
                   offender.oracleTaken,
                   offender.oracleTaken ? offender.oracleNext
                                        : invalidAddr);

    fetchBuffer.removeYounger(tid, seq);
    removeYounger(decodeQ[tid], seq);
    removeYounger(renameQ[tid], seq);
    iqs.squash(tid, seq);

    while (!rob.empty(tid) && rob.youngest(tid).seq > seq) {
        DynInst &young = rob.youngest(tid);
        if (young.inIcount)
            --icounts[tid];
        if (young.stage == InstStage::Dispatched ||
            young.stage == InstStage::Issued ||
            young.stage == InstStage::Done) {
            rename.rollback(young);
            --robCount[tid];
        }
        ++stats.instsSquashed;
        rob.popYoungest(tid);
    }

    // Squashed correct-path instructions already consumed the trace;
    // rewind so fetch re-delivers from just after the offender. For
    // mispredict/bogus squashes everything younger was wrong path and
    // this is a no-op.
    front.rewindTrace(tid, offender.traceIndex + 1);
    front.redirect(tid, offender.oracleNext, currentCycle);
}

} // namespace smt
