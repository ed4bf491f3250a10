/**
 * @file
 * Determinism regression tests for the stage-graph refactor: two
 * simulations with the same seed and configuration must produce
 * bit-identical StatsRegistry dumps (text and JSON), and the stage
 * graph itself must be wired in the documented reverse-pipeline
 * order. Pinned per-point digests of the full stats dump and of the
 * post-warmup checkpoint guard host-speed changes against any drift
 * in simulated behaviour (TLB, cache and predictor state included).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bpred/engine_registry.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"
#include "util/sha256.hh"

namespace smt
{
namespace
{

SimConfig
smallConfig(const std::string &wl, EngineKind e, unsigned n, unsigned x,
            std::uint64_t seed)
{
    SimConfig cfg = table3Config(wl, e, n, x);
    cfg.warmupCycles = 5'000;
    cfg.measureCycles = 30'000;
    cfg.seed = seed;
    return cfg;
}

TEST(Determinism, IdenticalSeedsBitIdenticalRegistryDumps)
{
    // Every registered engine, zoo included — a new registration is
    // covered with no test edit.
    for (EngineKind e : allEngines()) {
        SimConfig cfg = smallConfig("2_MIX", e, 2, 8, 42);

        Simulator a(cfg);
        a.run();
        Simulator b(cfg);
        b.run();

        EXPECT_EQ(a.registry().textString(), b.registry().textString())
            << "engine " << engineName(e);
        EXPECT_EQ(a.registry().jsonString(), b.registry().jsonString())
            << "engine " << engineName(e);

        // Sanity: the run did real work.
        EXPECT_GT(a.registry().value("commit.insts"), 1'000.0);
    }
}

/** One short point and the sha256 digests it must reproduce. */
struct PinnedPoint
{
    const char *workload;
    EngineKind engine;
    LongLoadPolicy longLoad;
    const char *statsDigest;      //!< measuredStatsJson() at the end
    const char *checkpointDigest; //!< checkpoint after warmup
};

std::string
digestOf(const std::string &bytes)
{
    return sha256Hex(bytes.data(), bytes.size());
}

/**
 * Digests computed before the TLB hint table, byte-wide scoreboard
 * and out-of-line engine checkpoints landed; those changes are
 * bit-identical, so the digests must not move. A model change that
 * moves them must regenerate them deliberately.
 */
const PinnedPoint pinnedPoints[] = {
    {"2_ILP", EngineKind::GshareBtb, LongLoadPolicy::None,
     "fb5755f71d57c2a681af6edcef7505b6dec36e12003cab5a63066de34327a422",
     "a26c425f55e6f0e3d5659cc7cf522274c03705579d933c140a20dd008957c2a4"},
    {"2_ILP", EngineKind::GskewFtb, LongLoadPolicy::None,
     "27cab2faa00bb4cbb727b371a3a15af826e0f6d6654e8b55f211fd31825c5789",
     "8f9a23e4ac5e261d1b77244294f836b377deafc41a7be917c5fa28c3abbb0bc6"},
    {"2_ILP", EngineKind::Stream, LongLoadPolicy::None,
     "beda18feab8f52ddcfa05ca4ac29dfb063ec77ec5679ce0e669552e10a45b342",
     "eba03147d1c7b1719b5e2cd45c7e3f5effd933f15b7ca63a86cb2fdfb338e83e"},
    {"2_MEM", EngineKind::Stream, LongLoadPolicy::None,
     "98fcc204c6ce00bb86a6b8b87ab89f78019d1188bd832585e9cb0f7938f6fa1a",
     "4894e9491396d87601f7fa265b31ff43428b7c770b89be7df0c3f29615763ca8"},
    {"2_MEM", EngineKind::Stream, LongLoadPolicy::Stall,
     "4209913ab155fb27f916b056dec583f7056fad9f59a863074cef8b78b83631f1",
     "0486e8fb24c81fc4c0c635d841cde22a10a693562b3aaf4aab09b84b8760c255"},
    {"2_MEM", EngineKind::Stream, LongLoadPolicy::Flush,
     "d7daf263782d77ce11705b1884779716afbac56aff5d5c8af9833b719cd7c4c8",
     "1db0d95953dae35d98e75f11d9587be5bd3f489876129f1f557b6fceea15dc46"},
    {"4_ILP", EngineKind::GshareBtb, LongLoadPolicy::None,
     "c9c4796cc51ecad2fff0816332beee0e84135d83313d281c2e6789d0d87917fb",
     "8ca5b9ef8a8f11f9fb256618e6438184a3490c4e111f4041789c08a10c25a039"},
};

TEST(Determinism, PointsMatchPinnedDigests)
{
    for (const PinnedPoint &p : pinnedPoints) {
        SimConfig cfg = table3Config(p.workload, p.engine, 2, 8);
        cfg.core.longLoadPolicy = p.longLoad;
        cfg.warmupCycles = 2'000;
        cfg.measureCycles = 5'000;
        cfg.seed = 1;
        std::string what =
            cfg.describe() + " | longLoad " +
            std::to_string(static_cast<int>(p.longLoad));

        Simulator sim(cfg);
        sim.runWarmup();
        const std::string snapshot = sim.saveCheckpointToString();
        sim.runMeasure();
        EXPECT_EQ(digestOf(snapshot), p.checkpointDigest) << what;
        EXPECT_EQ(digestOf(sim.measuredStatsJson()), p.statsDigest)
            << what;

        // The restored twin must land on the same measured state.
        Simulator restored(cfg);
        restored.restoreCheckpointFromString(snapshot);
        restored.runMeasure();
        EXPECT_EQ(restored.measuredStatsJson(), sim.measuredStatsJson())
            << what;
        EXPECT_EQ(restored.saveCheckpointToString(),
                  sim.saveCheckpointToString())
            << what;
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    Simulator a(smallConfig("2_MIX", EngineKind::Stream, 1, 16, 1));
    a.run();
    Simulator b(smallConfig("2_MIX", EngineKind::Stream, 1, 16, 2));
    b.run();
    EXPECT_NE(a.registry().jsonString(), b.registry().jsonString());
}

TEST(Determinism, RegistryAgreesWithSimStatsView)
{
    Simulator sim(smallConfig("4_MIX", EngineKind::Stream, 2, 8, 7));
    sim.run();
    const SimStats &s = sim.stats();
    const StatsRegistry &reg = sim.registry();

    EXPECT_EQ(reg.value("sim.cycles"),
              static_cast<double>(s.cycles));
    EXPECT_EQ(reg.value("commit.insts"),
              static_cast<double>(s.instsCommitted));
    EXPECT_EQ(reg.value("fetch.insts"),
              static_cast<double>(s.instsFetched));
    EXPECT_DOUBLE_EQ(reg.value("sim.ipc"), s.ipc());
    EXPECT_DOUBLE_EQ(reg.value("sim.ipfc"), s.ipfc());
    for (unsigned t = 0; t < 4; ++t) {
        EXPECT_EQ(reg.value(csprintf("commit.thread%u.insts", t)),
                  static_cast<double>(s.threadCommitted[t]));
    }
}

TEST(StageGraphWiring, NineStagesInReversePipelineOrder)
{
    Simulator sim(smallConfig("2_MIX", EngineKind::GshareBtb, 1, 8, 0));
    const StageGraph &graph = sim.core().stages();
    std::vector<std::string> expect = {
        "execute", "writeback", "commit",  "issue",  "dispatch",
        "rename",  "decode",    "fetch",   "predict"};
    EXPECT_EQ(graph.names(), expect);
    ASSERT_EQ(graph.size(), 9u);
    EXPECT_EQ(graph.at(0).name(), "execute");
    EXPECT_EQ(graph.at(8).name(), "predict");
}

TEST(StageGraphWiring, ResetStatsClearsMeasuredWindow)
{
    Simulator sim(smallConfig("2_MIX", EngineKind::Stream, 1, 8, 3));
    sim.run();
    double committed = sim.registry().value("commit.insts");
    EXPECT_GT(committed, 0.0);
    sim.core().resetStats();
    EXPECT_EQ(sim.registry().value("commit.insts"), 0.0);
    EXPECT_EQ(sim.registry().value("sim.cycles"), 0.0);
    sim.runExtra(5'000);
    EXPECT_GT(sim.registry().value("commit.insts"), 0.0);
    EXPECT_LT(sim.registry().value("commit.insts"), committed);
}

} // namespace
} // namespace smt
