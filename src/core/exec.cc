#include "core/exec.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace smt
{

ExecUnit::ExecUnit(const CoreParams &params, MemoryHierarchy &memory)
    : params(params), memory(memory), wheel(wheelSize)
{
}

Cycle
ExecUnit::issue(DynInst &inst, Cycle now)
{
    Cycle latency;
    switch (inst.op) {
      case OpClass::IntMult:
        latency = params.intMultLatency;
        break;
      case OpClass::FpAlu:
        latency = params.fpLatency;
        break;
      case OpClass::Load:
        latency = params.agenLatency +
                  memory.dcacheAccess(inst.tid, inst.memAddr, false,
                                      now + params.agenLatency);
        break;
      case OpClass::Store:
        // Stores only generate their address here; the cache write
        // happens at commit and never blocks dependents.
        latency = params.agenLatency;
        break;
      default:
        latency = params.intAluLatency;
        break;
    }

    if (latency == 0)
        latency = 1;

    inst.stage = InstStage::Issued;
    if (latency < wheelSize)
        wheel[(now + latency) % wheelSize].emplace_back(inst.tid, inst.seq);
    else
        overflow[now + latency].emplace_back(inst.tid, inst.seq);
    return latency;
}

void
ExecUnit::completionsAt(
    Cycle now, std::vector<std::pair<ThreadID, InstSeqNum>> &out)
{
    // Swap the buffers out instead of copying them; `out`'s old
    // storage becomes the cleared slot's capacity.
    auto &slot = wheel[now % wheelSize];
    if (!overflow.empty() && overflow.begin()->first == now) {
        auto first = overflow.begin();
        out.swap(first->second);
        overflow.erase(first);
        out.insert(out.end(), slot.begin(), slot.end());
    } else {
        out.swap(slot);
    }
    slot.clear();
}

Cycle
ExecUnit::nextEventCycle(Cycle now) const
{
    Cycle next = now;
    for (Cycle d = 1; d < wheelSize; ++d)
        if (!wheel[(now + d) % wheelSize].empty()) {
            next = now + d;
            break;
        }
    if (!overflow.empty() &&
        (next == now || overflow.begin()->first < next))
        next = overflow.begin()->first;
    return next;
}

void
ExecUnit::reset()
{
    for (auto &slot : wheel)
        slot.clear();
    overflow.clear();
}

void
ExecUnit::save(CheckpointWriter &w) const
{
    w.u32(wheelSize);
    std::uint32_t non_empty = 0;
    for (const auto &slot : wheel)
        if (!slot.empty())
            ++non_empty;
    w.u32(non_empty);
    for (std::size_t i = 0; i < wheel.size(); ++i) {
        if (wheel[i].empty())
            continue;
        w.u32(static_cast<std::uint32_t>(i));
        w.u32(static_cast<std::uint32_t>(wheel[i].size()));
        for (const auto &[tid, seq] : wheel[i]) {
            w.i16(tid);
            w.u64(seq);
        }
    }
    w.u32(static_cast<std::uint32_t>(overflow.size()));
    for (const auto &[when, events] : overflow) {
        w.u64(when);
        w.u32(static_cast<std::uint32_t>(events.size()));
        for (const auto &[tid, seq] : events) {
            w.i16(tid);
            w.u64(seq);
        }
    }
}

void
ExecUnit::readCompletions(CheckpointReader &r, Completions &into) const
{
    std::uint32_t n = static_cast<std::uint32_t>(
        r.checkCount(r.u32(), 10, "completion"));
    for (std::uint32_t i = 0; i < n; ++i) {
        ThreadID tid = r.i16();
        InstSeqNum seq = r.u64();
        if (tid < 0 || static_cast<unsigned>(tid) >= params.numThreads)
            r.fail(csprintf("completion references thread %d, valid "
                            "range is [0, %u) (corrupt reference)",
                            (int)tid, params.numThreads));
        into.emplace_back(tid, seq);
    }
}

void
ExecUnit::restore(CheckpointReader &r)
{
    std::uint32_t size = r.u32();
    if (size != wheelSize)
        r.fail(csprintf("event wheel holds %u slots but this build "
                        "uses %zu",
                        size, wheelSize));
    reset();
    std::uint32_t non_empty = r.u32();
    for (std::uint32_t s = 0; s < non_empty; ++s) {
        std::uint32_t idx = r.u32();
        if (idx >= wheelSize)
            r.fail(csprintf("event-wheel slot %u out of range "
                            "[0, %zu)",
                            idx, wheelSize));
        readCompletions(r, wheel[idx]);
    }
    std::uint32_t cycles = static_cast<std::uint32_t>(
        r.checkCount(r.u32(), 12, "overflow cycle"));
    for (std::uint32_t c = 0; c < cycles; ++c) {
        Cycle when = r.u64();
        if (overflow.count(when))
            r.fail(csprintf("overflow cycle %llu listed twice (corrupt "
                            "payload)",
                            (unsigned long long)when));
        readCompletions(r, overflow[when]);
    }
}

} // namespace smt
