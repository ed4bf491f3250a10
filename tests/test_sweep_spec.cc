/**
 * @file
 * SweepSpec tests: the committed configs/ specs parse and expand to
 * the grids the hand-coded bench binaries used to run, spec-driven
 * execution is bit-identical to direct ExperimentRunner calls, and
 * schema errors carry actionable messages.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sweep_spec.hh"

using namespace smt;

namespace
{

std::string
configPath(const std::string &name)
{
    return defaultConfigDir() + "/" + name + ".json";
}

/** EXPECT a SpecError whose message contains a fragment. */
template <typename Fn>
void
expectSpecError(Fn fn, const std::string &fragment)
{
    try {
        fn();
        FAIL() << "expected SpecError containing \"" << fragment
               << "\"";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(fragment),
                  std::string::npos)
            << "message: " << e.what();
    }
}

} // namespace

TEST(SweepSpec, Fig4SpecMatchesHandCodedGrid)
{
    SweepSpec spec = SweepSpec::fromFile(
        configPath("fig4_two_threads"));
    EXPECT_EQ(spec.name, "fig4_two_threads");
    EXPECT_EQ(spec.type, SpecType::Grid);

    // The windows the bench harness has always used (makeRequest()).
    EXPECT_EQ(spec.warmupCycles, 40'000u);
    EXPECT_EQ(spec.measureCycles, 250'000u);
    EXPECT_EQ(spec.seed, 0u);

    // The exact grid bench_fig4_two_threads used to hard-code.
    auto points = spec.expand();
    std::vector<std::pair<unsigned, unsigned>> expected = {
        {1, 8}, {2, 8}, {1, 16}, {2, 16}};
    ASSERT_EQ(points.size(), expected.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].workload, "2_MIX");
        EXPECT_EQ(points[i].engine, EngineKind::GshareBtb);
        EXPECT_EQ(points[i].fetchThreads, expected[i].first);
        EXPECT_EQ(points[i].fetchWidth, expected[i].second);
        EXPECT_EQ(points[i].policy, PolicyKind::ICount);
        EXPECT_FALSE(points[i].overrides.any());
    }
}

TEST(SweepSpec, AllCommittedConfigsParseAndExpand)
{
    const char *names[] = {
        "fig2_single_thread", "fig4_two_threads", "fig5_ilp",
        "fig6_ilp_wide", "fig7_mem", "fig8_mem_wide",
        "sec33_superscalar", "table1_characteristics",
        "ablation_ftq", "ablation_policy",
        "ablation_predictor_size", "ablation_flush",
        "ablation_engines"};
    for (const char *name : names) {
        SweepSpec spec = SweepSpec::fromFile(configPath(name));
        EXPECT_EQ(spec.name, name);
        if (spec.type == SpecType::Grid)
            EXPECT_GT(spec.expand().size(), 0u) << name;
    }
}

TEST(SweepSpec, CommittedGridsMatchTheOldBenchBinaries)
{
    // Grid sizes of the pre-spec hand-coded bench main()s.
    struct Expected
    {
        const char *name;
        std::size_t points;
    };
    const Expected expected[] = {
        {"fig2_single_thread", 2},  // 1 wl x 1 engine x 2 policies
        {"fig4_two_threads", 4},    // 1 x 1 x 4
        {"fig5_ilp", 24},           // 4 x 3 x 2
        {"fig6_ilp_wide", 36},      // 4 x 3 x 3
        {"fig7_mem", 36},           // 6 x 3 x 2
        {"fig8_mem_wide", 54},      // 6 x 3 x 3
        {"sec33_superscalar", 36},  // 12 x 3 x 1
        {"ablation_ftq", 10},       // 2 x 1 x 1 x 5 depths
        {"ablation_policy", 24},    // 4 x 1 x 3 x 2 selections
        {"ablation_predictor_size", 12}, // 1 x 3 x 1 x 4 shifts
        {"ablation_flush", 18},     // 3 x 1 x 2 x 3 load policies
    };
    for (const auto &[name, points] : expected) {
        SweepSpec spec = SweepSpec::fromFile(configPath(name));
        EXPECT_EQ(spec.expand().size(), points) << name;
    }
}

TEST(SweepSpec, SpecRunIsBitIdenticalToDirectRunner)
{
    // The fig4 grid with short windows: spec-driven execution must
    // reproduce direct ExperimentRunner calls bit for bit.
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "fig4_short",
        "warmupCycles": 2000,
        "measureCycles": 8000,
        "seed": 0,
        "workloads": ["2_MIX"],
        "engines": ["gshare+BTB"],
        "policies": ["1.8", "2.8", "1.16", "2.16"]
    })");
    auto results = runSpec(spec).results;
    ASSERT_EQ(results.size(), 4u);

    std::vector<std::pair<unsigned, unsigned>> grid = {
        {1, 8}, {2, 8}, {1, 16}, {2, 16}};
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SweepRequest request;
        request.points = {GridPoint{"2_MIX", EngineKind::GshareBtb,
                                    grid[i].first, grid[i].second}};
        request.warmupCycles = 2000;
        request.measureCycles = 8000;
        request.seed = 0;
        auto direct = ExperimentRunner().run(request).results.at(0);
        EXPECT_EQ(results[i].ipfc, direct.ipfc);
        EXPECT_EQ(results[i].ipc, direct.ipc);
        EXPECT_EQ(results[i].statsJson, direct.statsJson);
    }
}

TEST(SweepSpec, OverridesExpandAsCrossProduct)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "combo",
        "workloads": ["2_MIX"],
        "engines": ["stream"],
        "policies": ["1.16"],
        "overrides": {
            "ftqEntries": [1, 2],
            "longLoadPolicy": ["stall", "flush"]
        }
    })");
    auto points = spec.expand();
    ASSERT_EQ(points.size(), 4u);

    // longLoadPolicy (parsed second) varies slower than ftqEntries.
    EXPECT_EQ(*points[0].overrides.get("ftqEntries"), 1u);
    EXPECT_EQ(static_cast<LongLoadPolicy>(
                  *points[0].overrides.get("longLoadPolicy")),
              LongLoadPolicy::Stall);
    EXPECT_EQ(*points[1].overrides.get("ftqEntries"), 2u);
    EXPECT_EQ(static_cast<LongLoadPolicy>(
                  *points[1].overrides.get("longLoadPolicy")),
              LongLoadPolicy::Stall);
    EXPECT_EQ(*points[2].overrides.get("ftqEntries"), 1u);
    EXPECT_EQ(static_cast<LongLoadPolicy>(
                  *points[2].overrides.get("longLoadPolicy")),
              LongLoadPolicy::Flush);
    EXPECT_EQ(*points[3].overrides.get("ftqEntries"), 2u);
    EXPECT_EQ(static_cast<LongLoadPolicy>(
                  *points[3].overrides.get("longLoadPolicy")),
              LongLoadPolicy::Flush);

    for (const auto &p : points) {
        EXPECT_TRUE(p.overrides.any());
        EXPECT_FALSE(p.overrides.describe().empty());
    }
}

TEST(SweepSpec, SelectionAndMultiSweepExpansion)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "multi",
        "sweeps": [
            {
                "workloads": ["2_MIX"],
                "engines": ["stream"],
                "policies": ["1.8"],
                "selection": ["round-robin", "icount"]
            },
            {
                "workloads": ["2_ILP", "2_MEM"],
                "policies": ["2.8"]
            }
        ]
    })");
    auto points = spec.expand();
    // 1x1x1x2 selections + 2 workloads x 3 default engines x 1.
    ASSERT_EQ(points.size(), 8u);
    EXPECT_EQ(points[0].policy, PolicyKind::RoundRobin);
    EXPECT_EQ(points[1].policy, PolicyKind::ICount);
    EXPECT_EQ(points[2].workload, "2_ILP");
    EXPECT_EQ(points[2].engine, EngineKind::GshareBtb);
}

TEST(SweepSpec, NameResolvers)
{
    EXPECT_EQ(engineKindFromString("gshare+BTB"),
              EngineKind::GshareBtb);
    EXPECT_EQ(engineKindFromString("GSHARE_BTB"),
              EngineKind::GshareBtb);
    EXPECT_EQ(engineKindFromString("gskew+ftb"),
              EngineKind::GskewFtb);
    EXPECT_EQ(engineKindFromString("Stream"), EngineKind::Stream);
    EXPECT_EQ(engineKindFromString("tage"), EngineKind::Tage);
    EXPECT_EQ(engineKindFromString("oracle-bp"), EngineKind::PerfectBp);
    EXPECT_EQ(engineKindFromString("perfect_icache"),
              EngineKind::PerfectL1i);
    EXPECT_EQ(engineKindFromString("adaptive"), EngineKind::Adaptive);
    // Unknown-engine errors enumerate the registry.
    expectSpecError([] { engineKindFromString("tage2"); },
                    "unknown fetch engine \"tage2\"");
    expectSpecError([] { engineKindFromString("tage2"); },
                    "gshare+BTB");
    expectSpecError([] { engineKindFromString("tage2"); }, "stream");
    expectSpecError([] { engineKindFromString("tage2"); }, "adaptive");

    EXPECT_EQ(policyKindFromString("icount"), PolicyKind::ICount);
    EXPECT_EQ(policyKindFromString("rr"), PolicyKind::RoundRobin);
    EXPECT_EQ(policyKindFromString("Round-Robin"),
              PolicyKind::RoundRobin);
    EXPECT_THROW(policyKindFromString("fifo"), SpecError);

    EXPECT_EQ(longLoadPolicyFromString("flush"),
              LongLoadPolicy::Flush);
    EXPECT_THROW(longLoadPolicyFromString("drain"), SpecError);

    EXPECT_NO_THROW(validateWorkloadName("4_MIX"));
    EXPECT_NO_THROW(validateWorkloadName("gzip"));
    EXPECT_THROW(validateWorkloadName("9_MIX"), SpecError);
}

TEST(SweepSpec, SchemaErrorsAreActionable)
{
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"workloads": ["2_MIX"],
                "policies": ["1.8"]})");
        },
        "non-empty \"name\"");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["nope"], "policies": ["1.8"]})");
        },
        "unknown workload \"nope\"");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "engines": ["tage2"],
                "policies": ["1.8"]})");
        },
        "unknown fetch engine \"tage2\"");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["eight"]})");
        },
        "bad policy \"eight\"");
    // Out-of-range policies and overrides fail at parse time, not
    // with a mid-run fatal().
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["2.32"]})");
        },
        "policy width 32 out of range");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["9.8"]})");
        },
        "policy threads 9 out of range");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "overrides": {"ftqEntries": 0}})");
        },
        "ftqEntries must be at least 1");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "overrides": {"robEntries": 4}})");
        },
        "robEntries must be at least 8");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.16"],
                "overrides": {"fetchBufferSize": 8}})");
        },
        "smaller than the widest fetch policy");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "overrides": {"ftqEntries": 4294967300}})");
        },
        "ftqEntries is out of range");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "overrides": {"predictorShift": 12}})");
        },
        "predictorShift must be at most 6");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "overrides": {"cacheWays": 4}})");
        },
        "unknown override \"cacheWays\"");
    // Empty arrays must error, not silently expand to zero points.
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "overrides": {"ftqEntries": []}})");
        },
        "must not be an empty array");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "policies": ["1.8"],
                "selection": []})");
        },
        "\"selection\" must not be an empty array");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": ["2_MIX"], "engines": [],
                "policies": ["1.8"]})");
        },
        "\"engines\" must not be an empty array");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x", "frobnicate": 1,
                "workloads": ["2_MIX"], "policies": ["1.8"]})");
        },
        "unknown spec key \"frobnicate\"");
    expectSpecError(
        [] { SweepSpec::fromString(R"({"name": "x"})"); },
        "grid spec needs");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "type": "characteristics",
                "workloads": ["2_MIX"], "policies": ["1.8"]})");
        },
        "takes no sweeps");
    // Malformed JSON surfaces as a SpecError with parse context.
    expectSpecError(
        [] { SweepSpec::fromString("{\"name\": \n oops}"); },
        "line 2");
    expectSpecError(
        [] { SweepSpec::fromFile("/nonexistent/spec.json"); },
        "cannot open");
}

TEST(SweepSpec, UnknownOverrideErrorListsEveryTableKey)
{
    // The key list is generated from the override table, so it
    // cannot drift from what the parser accepts.
    try {
        SweepSpec::fromString(R"({"name": "x",
            "workloads": ["2_MIX"], "policies": ["1.8"],
            "overrides": {"cacheWays": 4}})");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown override \"cacheWays\""),
                  std::string::npos)
            << msg;
        for (const ParamSpec &spec : coreParamSpecs())
            EXPECT_NE(msg.find(spec.key), std::string::npos)
                << spec.key << " missing from: " << msg;
        EXPECT_NE(msg.find("smtsim --list-engines"), std::string::npos)
            << msg;
    }
}

TEST(SweepSpec, CycleSkipKeyParsesAndReachesTheRunner)
{
    // Default: skipping on (it is bit-identical, so there is no
    // reason to tick dead cycles).
    SweepSpec defaulted = SweepSpec::fromString(R"({"name": "x",
        "workloads": ["2_MIX"], "policies": ["1.8"]})");
    EXPECT_TRUE(defaulted.cycleSkip);
    EXPECT_TRUE(defaulted.makeRequest().cycleSkip);

    SweepSpec off = SweepSpec::fromString(R"({"name": "x",
        "cycleSkip": false,
        "workloads": ["2_MIX"], "policies": ["1.8"]})");
    EXPECT_FALSE(off.cycleSkip);
    EXPECT_FALSE(off.makeRequest().cycleSkip);

    SweepSpec on = SweepSpec::fromString(R"({"name": "x",
        "cycleSkip": true,
        "workloads": ["2_MIX"], "policies": ["1.8"]})");
    EXPECT_TRUE(on.cycleSkip);

    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "cycleSkip": "fast",
                "workloads": ["2_MIX"], "policies": ["1.8"]})");
        },
        "cycleSkip must be a boolean");
}

TEST(SweepSpec, TraceWorkloadsParseIntoTraceNames)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "replay",
        "workloads": [
            "2_MIX",
            {"trace": "fig2.t0.trc"},
            {"trace": ["a.trc", "b.strc"]}
        ],
        "engines": ["gshare+BTB"],
        "policies": ["1.8"]
    })");
    auto points = spec.expand();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].workload, "2_MIX");
    EXPECT_EQ(points[1].workload, "trace:fig2.t0.trc");
    EXPECT_EQ(points[2].workload, "trace:a.trc,b.strc");

    // The committed trace configs expand without the trace files
    // existing (they are recorded by the user before running).
    for (const char *name : {"trace_replay", "trace_mix"}) {
        SweepSpec committed =
            SweepSpec::fromFile(configPath(name));
        EXPECT_EQ(committed.name, name);
        EXPECT_GT(committed.expand().size(), 0u) << name;
    }

    EXPECT_NO_THROW(validateWorkloadName("trace:foo.trc"));
    EXPECT_NO_THROW(validateWorkloadName("trace:a.trc,b.trc"));
    EXPECT_THROW(validateWorkloadName("trace:"), SpecError);
    EXPECT_THROW(validateWorkloadName("trace:a,,b"), SpecError);

    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": [{"replay": "a.trc"}],
                "policies": ["1.8"]})");
        },
        "exactly the key \"trace\"");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": [{"trace": []}],
                "policies": ["1.8"]})");
        },
        "at least one path");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({"name": "x",
                "workloads": [{"trace": "a,b.trc"}],
                "policies": ["1.8"]})");
        },
        "bad trace path");
}

TEST(SweepSpec, UnwritableOutputDirFailsFastWithThePath)
{
    EXPECT_NO_THROW(ensureWritableDir(::testing::TempDir()));
    expectSpecError(
        [] { ensureWritableDir("/nonexistent/json-out"); },
        "\"/nonexistent/json-out\" is not writable");
    EXPECT_EQ(benchRecordDir("somewhere"), "somewhere");
}

TEST(SweepSpec, CharacteristicsSpecRuns)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "chars",
        "type": "characteristics",
        "instructions": 20000
    })");
    EXPECT_EQ(spec.type, SpecType::Characteristics);
    EXPECT_THROW(runSpec(spec), SpecError);

    auto rows = runCharacteristics(spec.instructions);
    ASSERT_EQ(rows.size(), 12u); // the twelve SPECint2000 profiles
    for (const auto &r : rows) {
        EXPECT_GT(r.blockSize, 0.0) << r.benchmark;
        EXPECT_GT(r.streamLength, 0.0) << r.benchmark;
        EXPECT_GE(r.loadFraction, 0.0) << r.benchmark;
    }
    EXPECT_EQ(characteristicsMetrics(rows).size(), rows.size() * 4);
}
