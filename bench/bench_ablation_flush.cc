/**
 * @file
 * Ablation A4 (extension): Tullsen & Brown's long-latency-load
 * policies (STALL / FLUSH) on top of each fetch configuration. The
 * paper argues ICOUNT.1.X avoids the clog by construction; this
 * ablation shows how much of the 2.X loss a load-aware policy
 * recovers, and how much it still trails the paper's proposal. Thin
 * wrapper over configs/ablation_flush.json (see smtsim).
 */

#include "bench_common.hh"

using namespace smtbench;

namespace
{

double
ipcWith(const std::vector<ExperimentResult> &rs, const char *wl,
        unsigned n, unsigned x, LongLoadPolicy pol)
{
    RunOverrides ov;
    ov.set("longLoadPolicy", static_cast<unsigned>(pol));
    const auto *r = find(rs, wl, EngineKind::Stream, n, x,
                         PolicyKind::ICount, ov);
    if (r == nullptr)
        fatal("long-load point %s/%u.%u/%s missing from the spec",
              wl, n, x, longLoadPolicyName(pol));
    return r->ipc;
}

} // namespace

int
main()
{
    std::printf("== Ablation: long-latency-load policies (stream "
                "engine) ==\n\n");

    SpecRun sr = runSpecByName("ablation_flush");
    BenchReport report(sr.spec.benchName());
    report.add(sr.results);

    TextTable t({"workload", "policy", "baseline", "STALL", "FLUSH"});
    for (const char *wl : {"2_MIX", "2_MEM", "4_MIX"}) {
        for (auto [n, x] : {std::pair{2u, 8u}, {1u, 16u}}) {
            double base = ipcWith(sr.results, wl, n, x,
                                  LongLoadPolicy::None);
            double stall = ipcWith(sr.results, wl, n, x,
                                   LongLoadPolicy::Stall);
            double flush = ipcWith(sr.results, wl, n, x,
                                   LongLoadPolicy::Flush);
            std::string key = csprintf("%s.%u.%u", wl, n, x);
            report.metric(key + ".baseline.ipc", base);
            report.metric(key + ".stall.ipc", stall);
            report.metric(key + ".flush.ipc", flush);
            t.addRow({wl, csprintf("%u.%u", n, x),
                      TextTable::num(base), TextTable::num(stall),
                      TextTable::num(flush)});
        }
    }
    t.print(std::cout);
    report.write();
    std::printf("\nSTALL/FLUSH recover part of the 2.X clog loss "
                "(Tullsen & Brown), while the\npaper's ICOUNT.1.16 "
                "needs no load-awareness at all.\n");
    return 0;
}
