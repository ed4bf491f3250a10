/**
 * @file
 * Ablation A2: predictor hardware budget. Sweeps the stream predictor
 * and gshare table sizes around the paper's ~45KB budget point. Thin
 * wrapper over configs/ablation_predictor_size.json (see smtsim).
 */

#include "bench_common.hh"

using namespace smtbench;

namespace
{

double
ipcAtShift(const std::vector<ExperimentResult> &rs, EngineKind engine,
           unsigned shift)
{
    RunOverrides ov;
    ov.set("predictorShift", shift);
    const auto *r = find(rs, "4_MIX", engine, 1, 16,
                         PolicyKind::ICount, ov);
    if (r == nullptr)
        fatal("predictor shift %u missing for %s", shift,
              engineName(engine));
    return r->ipc;
}

} // namespace

int
main()
{
    std::printf("== Ablation: predictor budget sweep (4_MIX, "
                "ICOUNT.1.16) ==\n\n");

    SpecRun sr = runSpecByName("ablation_predictor_size");
    BenchReport report(sr.spec.benchName());
    report.add(sr.results);

    TextTable t({"budget", "gshare+BTB", "gskew+FTB", "stream"});
    const char *labels[] = {"1x (Table 3)", "1/2x", "1/4x", "1/8x"};
    for (unsigned shift = 0; shift < 4; ++shift) {
        double g = ipcAtShift(sr.results, EngineKind::GshareBtb,
                              shift);
        double k = ipcAtShift(sr.results, EngineKind::GskewFtb,
                              shift);
        double s = ipcAtShift(sr.results, EngineKind::Stream, shift);
        report.metric(csprintf("shift%u.gshareBtb.ipc", shift), g);
        report.metric(csprintf("shift%u.gskewFtb.ipc", shift), k);
        report.metric(csprintf("shift%u.stream.ipc", shift), s);
        t.addRow({labels[shift], TextTable::num(g), TextTable::num(k),
                  TextTable::num(s)});
    }
    t.print(std::cout);
    report.write();
    return 0;
}
