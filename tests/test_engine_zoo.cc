/**
 * @file
 * Engine-zoo tests: the registry round-trips every registered engine,
 * spec-driven execution covers the whole zoo (TAGE, the oracle modes
 * and the adaptive fetch-rate policy, not just the paper trio), the
 * oracle modes dominate their base engine, and engine-parameter
 * overrides flow from spec JSON through the registry schemas into
 * EngineParams.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bpred/engine_registry.hh"
#include "sim/sweep_spec.hh"

using namespace smt;

namespace
{

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

double
ipcOf(const std::vector<ExperimentResult> &results, EngineKind e)
{
    for (const auto &r : results)
        if (r.engine == e)
            return r.ipc;
    ADD_FAILURE() << "no result for engine " << engineName(e);
    return 0.0;
}

} // namespace

TEST(EngineZoo, RegistryRoundTripsEveryName)
{
    // resolve(name(e)) == e for every registered engine — the
    // registry's canonical names, the spec resolver and the enum all
    // agree, zoo included.
    for (EngineKind e : allEngines())
        EXPECT_EQ(engineKindFromString(engineName(e)), e)
            << engineName(e);
    EXPECT_EQ(allEngines().size(),
              EngineRegistry::instance().all().size());
    // The paper trio is a strict prefix of the zoo.
    ASSERT_EQ(paperEngines().size(), 3u);
    for (std::size_t i = 0; i < paperEngines().size(); ++i)
        EXPECT_EQ(paperEngines()[i], allEngines()[i]);
}

TEST(EngineZoo, UnknownEngineErrorEnumeratesRegistry)
{
    try {
        engineKindFromString("definitely-not-an-engine");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        for (EngineKind k : allEngines())
            EXPECT_NE(msg.find(engineName(k)), std::string::npos)
                << "error does not list " << engineName(k) << ": "
                << msg;
        EXPECT_NE(msg.find("paper"), std::string::npos) << msg;
        EXPECT_NE(msg.find("all"), std::string::npos) << msg;
    }
}

TEST(EngineZoo, SpecRunsEveryRegisteredEngine)
{
    // "engines": "all" expands to the whole registry; every engine
    // must run from a JSON spec and commit real work.
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "zoo_all",
        "warmupCycles": 3000,
        "measureCycles": 12000,
        "seed": 0,
        "workloads": ["2_MIX"],
        "engines": "all",
        "policies": ["2.8"]
    })");
    auto points = spec.expand();
    ASSERT_EQ(points.size(), allEngines().size());
    auto results = runSpec(spec).results;
    ASSERT_EQ(results.size(), allEngines().size());
    for (const auto &r : results) {
        EXPECT_GT(r.ipc, 0.0) << engineName(r.engine);
        EXPECT_GT(r.ipfc, 0.0) << engineName(r.engine);
    }
}

TEST(EngineZoo, OracleModesDominateBaseEngine)
{
    // Both oracle presets idealize one bottleneck of the gshare+BTB
    // base engine, so each must commit at least as many instructions
    // per cycle as the base on the fig2 workload/policy.
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "zoo_oracle",
        "warmupCycles": 5000,
        "measureCycles": 30000,
        "seed": 0,
        "workloads": ["2_MIX"],
        "engines": ["gshare+BTB", "perfect-bp", "perfect-l1i"],
        "policies": ["1.8"]
    })");
    auto results = runSpec(spec).results;
    ASSERT_EQ(results.size(), 3u);
    double base = ipcOf(results, EngineKind::GshareBtb);
    EXPECT_GE(ipcOf(results, EngineKind::PerfectBp), base);
    EXPECT_GE(ipcOf(results, EngineKind::PerfectL1i), base);
}

TEST(EngineZoo, OracleDominatesWithManagedLongLoads)
{
    // At N=2 both threads fetch every cycle, so under the baseline
    // long-load policy (None) a memory-stalled thread clogs the
    // shared IQ/rename pool and only the base engine's misprediction
    // squashes release it — wrong-path execution acts as an
    // accidental throttle and perfect-BP can land BELOW the base
    // engine. That is the very phenomenon the paper's long-load
    // flush policy manages; with it active the oracle dominates
    // again. (Also exercises structural + engine-level overrides in
    // one spec.)
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "zoo_oracle_flush",
        "warmupCycles": 5000,
        "measureCycles": 30000,
        "seed": 0,
        "workloads": ["2_MIX"],
        "engines": ["gshare+BTB", "perfect-bp"],
        "policies": ["2.8"],
        "overrides": {
            "longLoadPolicy": ["flush"],
            "longLoadThreshold": [30]
        }
    })");
    auto results = runSpec(spec).results;
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GE(ipcOf(results, EngineKind::PerfectBp),
              ipcOf(results, EngineKind::GshareBtb));
}

TEST(EngineZoo, EngineParamOverridesFlowThroughSpec)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "zoo_params",
        "workloads": ["2_MIX"],
        "engines": ["tage"],
        "policies": ["1.8"],
        "overrides": { "tageTables": [2, 8] }
    })");
    auto points = spec.expand();
    ASSERT_EQ(points.size(), 2u);
    ASSERT_EQ(points[0].overrides.entries.size(), 1u);
    EXPECT_STREQ(points[0].overrides.entries[0].first->key,
                 "tageTables");
    EXPECT_EQ(points[0].overrides.entries[0].second, 2u);
    EXPECT_EQ(points[1].overrides.entries[0].second, 8u);
    EXPECT_NE(points[0].overrides.describe().find("tageTables=2"),
              std::string::npos);

    // The override lands in the constructed core's EngineParams.
    CoreParams core;
    points[1].overrides.apply(core);
    EXPECT_EQ(core.engineParams.tageTables, 8u);
}

TEST(EngineZoo, EngineParamOverridesAreValidated)
{
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({
                "name": "x", "workloads": ["2_MIX"],
                "engines": ["tage"], "policies": ["1.8"],
                "overrides": { "tageWombats": [3] }
            })");
        },
        "smtsim --list-engines");
    expectSpecError(
        [] {
            SweepSpec::fromString(R"({
                "name": "x", "workloads": ["2_MIX"],
                "engines": ["tage"], "policies": ["1.8"],
                "overrides": { "tageTagBits": [99] }
            })");
        },
        "out of range");
}

TEST(EngineZoo, AdaptiveAndOracleParamsAreBoolPresets)
{
    // The preset engines flip EngineParams flags the registry
    // declares as bool specs; applying the preset is visible through
    // the schema's get().
    const EngineRegistry &reg = EngineRegistry::instance();
    struct Expect
    {
        EngineKind kind;
        const char *flag;
    };
    for (const auto &[kind, flag] :
         {Expect{EngineKind::PerfectBp, "perfectBp"},
          Expect{EngineKind::PerfectL1i, "perfectIcache"},
          Expect{EngineKind::Adaptive, "adaptiveFetch"}}) {
        const ParamSpec *spec = reg.findParam(flag);
        ASSERT_NE(spec, nullptr) << flag;
        CoreParams p;
        EXPECT_EQ(spec->get(p), 0u) << flag;
        applyEnginePreset(kind, p.engineParams);
        EXPECT_EQ(spec->get(p), 1u) << flag;
    }
}
