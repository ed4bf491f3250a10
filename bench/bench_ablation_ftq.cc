/**
 * @file
 * Ablation A1: FTQ depth. The decoupled front-end tolerates predictor
 * latency through the FTQ; sweeping its depth shows how much
 * decoupling the design needs (the paper uses 4 entries per thread).
 * Thin wrapper over configs/ablation_ftq.json (see smtsim).
 */

#include "bench_common.hh"

using namespace smtbench;

int
main()
{
    std::printf("== Ablation: FTQ depth (stream engine, "
                "ICOUNT.1.16) ==\n\n");

    SpecRun sr = runSpecByName("ablation_ftq");
    BenchReport report(sr.spec.benchName());
    report.add(sr.results);

    TextTable t({"FTQ entries", "2_MIX IPC", "4_ILP IPC"});
    for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
        RunOverrides ov;
        ov.set("ftqEntries", depth);
        const auto *mix = find(sr.results, "2_MIX",
                               EngineKind::Stream, 1, 16,
                               PolicyKind::ICount, ov);
        const auto *ilp = find(sr.results, "4_ILP",
                               EngineKind::Stream, 1, 16,
                               PolicyKind::ICount, ov);
        if (mix == nullptr || ilp == nullptr)
            fatal("FTQ depth %u missing from the spec grid", depth);
        report.metric(csprintf("ftq%u.2_MIX.ipc", depth), mix->ipc);
        report.metric(csprintf("ftq%u.4_ILP.ipc", depth), ilp->ipc);
        t.addRow({std::to_string(depth), TextTable::num(mix->ipc),
                  TextTable::num(ilp->ipc)});
    }
    t.print(std::cout);
    report.write();
    return 0;
}
