/**
 * @file
 * Resumable-sweep tests: the journal-line codec round trips
 * losslessly, and runJournaled (what `smtsim --checkpoint-dir` runs)
 * lets a re-run skip every completed point with zero re-simulated
 * warmups (missing points restore their warmups from the disk
 * snapshot tier), tolerates a torn final line, and fails fast with
 * the --fresh escape hatch spelled out when the journal belongs to a
 * different sweep.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/executor.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "bpred/engine_registry.hh"
#include "sim/result_codec.hh"
#include "sim/sweep_spec.hh"
#include "util/json.hh"

using namespace smt;

namespace
{

/** A fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

GridPoint
point(const std::string &workload, unsigned width = 8)
{
    GridPoint p;
    p.workload = workload;
    p.engine = EngineKind::GshareBtb;
    p.fetchThreads = 1;
    p.fetchWidth = width;
    p.policy = PolicyKind::ICount;
    return p;
}

ExecutorParams
smallParams()
{
    return {/*warmupCycles=*/1500, /*measureCycles=*/4000,
            /*seed=*/0, /*cycleSkip=*/true};
}

/** A 4-point request journaled in `dir`; every point is its own
 *  warmup group. */
SweepRequest
smallRequest(const std::string &dir)
{
    SweepRequest req;
    req.warmupCycles = 1500;
    req.measureCycles = 4000;
    req.checkpointDir = dir;
    for (const char *wl : {"gzip", "mcf"}) {
        req.points.push_back(point(wl, 8));
        req.points.push_back(point(wl, 16));
    }
    return req;
}

/** The BENCH-record results array, rendered (the bit-identity lens:
 *  timing blocks are wall-clock and legitimately differ). */
std::string
resultsArray(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    ExperimentRunner::writeJson(os, "t", results);
    return jsonParse(os.str()).find("results")->dump();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

} // namespace

// ---------------------------------------------------------------------
// Journal-line codec round trips
// ---------------------------------------------------------------------

TEST(ResultCodec, ExecutedResultRoundTripsLosslessly)
{
    ExperimentResult r =
        PointExecutor(smallParams()).execute(point("gzip")).result;
    ASSERT_FALSE(r.statsJson.empty());

    std::string wire = resultToWireJson(r);
    ExperimentResult back = resultFromWireJson(jsonParse(wire));
    EXPECT_EQ(resultToWireJson(back), wire);

    // The BENCH-record rendering must survive the codec byte for
    // byte — this is what keeps merged records diffable against
    // single-process ones.
    std::ostringstream a, b;
    {
        JsonWriter jw(a, 2);
        writeResultJson(jw, r);
    }
    {
        JsonWriter jw(b, 2);
        writeResultJson(jw, back);
    }
    EXPECT_EQ(a.str(), b.str());
}

TEST(ResultCodec, OutcomeRoundTripKeepsTheSideband)
{
    PointOutcome o = PointExecutor(smallParams()).execute(point("mcf"));
    o.warmupSeconds = 0.25;
    o.measureSeconds = 1.5;
    o.ranWarmup = false;
    o.restored = true;
    o.diskHit = true;

    PointOutcome back =
        outcomeFromWireJson(jsonParse(outcomeToWireJson(o)));
    EXPECT_EQ(back.warmupSeconds, o.warmupSeconds);
    EXPECT_EQ(back.measureSeconds, o.measureSeconds);
    EXPECT_FALSE(back.ranWarmup);
    EXPECT_TRUE(back.restored);
    EXPECT_TRUE(back.diskHit);
    EXPECT_EQ(outcomeToWireJson(back), outcomeToWireJson(o));
}

TEST(ResultCodec, SweepRequestKeyTracksRequestIdentity)
{
    SweepRequest req = smallRequest("");
    std::string key = sweepRequestKey(req);
    EXPECT_EQ(key.size(), 16u); // %016llx
    EXPECT_EQ(sweepRequestKey(req), key);

    SweepRequest other = req;
    other.seed = 7;
    EXPECT_NE(sweepRequestKey(other), key);

    other = req;
    other.points[2].fetchWidth = 4;
    EXPECT_NE(sweepRequestKey(other), key);
}

/** The overrides a one-point spec with this overrides object
 *  expands to. */
RunOverrides
specOverrides(const std::string &overrides_json)
{
    auto points = SweepSpec::fromString(
                      R"({"name": "rt", "workloads": ["2_ILP"],
                          "policies": ["1.8"], "overrides": )" +
                      overrides_json + "}")
                      .expand();
    EXPECT_EQ(points.size(), 3u); // the paper engine trio
    return points.at(0).overrides;
}

/** A result's BENCH-record rendering, parsed back. */
JsonValue
recordOf(const ExperimentResult &r)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, 2);
        writeResultJson(jw, r);
    }
    return jsonParse(os.str());
}

TEST(ResultCodec, EveryOverrideKeyRoundTrips)
{
    std::vector<const ParamSpec *> rows;
    for (const ParamSpec &spec : coreParamSpecs())
        rows.push_back(&spec);
    for (const EngineDescriptor &d : EngineRegistry::instance().all())
        for (const ParamSpec &spec : d.params)
            rows.push_back(&spec);

    for (const ParamSpec *spec : rows) {
        SCOPED_TRACE(spec->key);
        // A value that is set (not a rescaling row's zero), in range, and
        // covers the 1.8 policy's fetch width.
        std::uint64_t value = std::clamp<std::uint64_t>(
            8, std::max<std::uint64_t>(spec->minValue, 1),
            spec->maxValue);
        std::string json_value = std::to_string(value);
        if (spec->type == ParamSpec::Type::Enum) {
            value = spec->enumNames.size() - 1;
            json_value =
                "\"" + std::string(spec->enumNames[value]) + "\"";
        }

        // 1. Spec parse.
        RunOverrides parsed = specOverrides(
            "{\"" + std::string(spec->key) + "\": " + json_value + "}");
        ASSERT_EQ(parsed.entries.size(), 1u);
        EXPECT_EQ(parsed.get(spec->key), value);
        std::string variant = parsed.describe();
        EXPECT_EQ(variant, spec->describe(value));

        // 2. The BENCH-record echo: the variant, and an overrides
        //    object that parses back as a spec to the same overrides.
        ExperimentResult r;
        r.workload = "2_ILP";
        r.overrides = parsed;
        JsonValue record = recordOf(r);
        EXPECT_EQ(record.find("variant")->asString(), variant);
        EXPECT_EQ(specOverrides(record.find("overrides")->dump()),
                  parsed);

        // 3-4. The journal codec.
        ExperimentResult back =
            resultFromWireJson(jsonParse(resultToWireJson(r)));
        EXPECT_EQ(back.overrides, parsed);
        EXPECT_EQ(back.overrides.describe(), variant);
    }
}

TEST(ResultCodec, PredictorShiftPrintsBeforeAndAppliesAfterEngineKeys)
{
    RunOverrides ov = specOverrides(
        R"({"gshareEntries": 32768, "predictorShift": 1})");
    EXPECT_EQ(ov.describe(), "predshift=1 gshareEntries=32768");
    CoreParams core;
    ov.apply(core);
    EXPECT_EQ(core.engineParams.gshareEntries, 16384u);

    // A zero shift is the baseline: no entry, no variant.
    EXPECT_FALSE(specOverrides(R"({"predictorShift": 0})").any());
    // A baseline-valued enum is still an override.
    EXPECT_EQ(specOverrides(R"({"longLoadPolicy": "none"})").describe(),
              "llp=none");
}

TEST(ResultCodec, WireRejectsWhatTheSpecParserRejects)
{
    ExperimentResult r;
    r.workload = "2_ILP";
    r.overrides = specOverrides(R"({"ftqEntries": 4})");
    std::string wire = resultToWireJson(r);
    auto expectCodecError = [&](const std::string &from,
                                const std::string &to,
                                const std::string &fragment) {
        std::string bad = wire;
        std::size_t at = bad.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        bad.replace(at, from.size(), to);
        try {
            resultFromWireJson(jsonParse(bad));
            FAIL() << "expected CodecError for " << to;
        } catch (const CodecError &e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << e.what();
        }
    };
    expectCodecError("\"ftqEntries\":4", "\"ftqEntries\":0",
                     "ftqEntries must be at least 1");
    expectCodecError("\"ftqEntries\":4", "\"predictorShift\":7",
                     "predictorShift must be at most 6");
    expectCodecError("\"ftqEntries\":4", "\"tageTagBits\":99",
                     "out of range");
    expectCodecError("\"ftqEntries\":4", "\"longLoadPolicy\":\"drain\"",
                     "unknown longLoadPolicy \"drain\"");
    expectCodecError("\"ftqEntries\":4", "\"cacheWays\":4",
                     "unknown override \"cacheWays\"");
}

// ---------------------------------------------------------------------
// Journaled in-process sweeps
// ---------------------------------------------------------------------

TEST(JournaledSweep, FirstRunIsBitIdenticalToThePlainRunner)
{
    SweepRequest req = smallRequest(freshDir("journal_plain"));
    SweepReport run = runJournaled(req, "plain", false);
    EXPECT_EQ(run.timing.journaledPoints, 0u);
    EXPECT_EQ(run.timing.warmupRuns, req.points.size());

    SweepRequest plain = req;
    plain.checkpointDir.clear();
    EXPECT_EQ(resultsArray(run.results),
              resultsArray(ExperimentRunner().run(plain).results));
    std::string path = SweepJournal::pathFor(req.checkpointDir, "plain");
    EXPECT_EQ(readLines(path).size(), 1 + req.points.size());
}

TEST(JournaledSweep, ResumeSkipsEveryCompletedPoint)
{
    SweepRequest req = smallRequest(freshDir("journal_resume"));
    SweepReport first = runJournaled(req, "resume", false);
    EXPECT_EQ(first.timing.journaledPoints, 0u);
    EXPECT_EQ(first.timing.warmupRuns, req.points.size());
    EXPECT_EQ(first.timing.restoredRuns, 0u);

    // The journal header describes this sweep.
    std::vector<std::string> lines =
        readLines(SweepJournal::pathFor(req.checkpointDir, "resume"));
    ASSERT_FALSE(lines.empty());
    JsonValue doc = jsonParse(lines[0]);
    EXPECT_EQ(doc.find("schema")->asString(), "smtfetch-journal-v1");
    EXPECT_EQ(doc.find("bench")->asString(), "resume");
    EXPECT_EQ(doc.find("requestKey")->asString(), sweepRequestKey(req));
    EXPECT_EQ(doc.find("points")->asUInt64(), req.points.size());
    EXPECT_EQ(doc.find("warmupGroups")->asUInt64(), req.points.size());

    // A full re-run simulates nothing at all: every point is served
    // from the journal.
    SweepReport rerun = runJournaled(req, "resume", false);
    EXPECT_EQ(rerun.timing.journaledPoints, req.points.size());
    EXPECT_EQ(rerun.timing.warmupRuns, 0u);
    EXPECT_EQ(rerun.timing.restoredRuns, 0u);
    EXPECT_EQ(resultsArray(rerun.results), resultsArray(first.results));
}

TEST(JournaledSweep, TruncatedJournalRerunsOnlyTheMissingPoint)
{
    SweepRequest req = smallRequest(freshDir("journal_truncate"));
    std::string firstResults =
        resultsArray(runJournaled(req, "truncate", false).results);

    // Drop the last completed entry — the run was killed after 3 of
    // 4 points.
    std::string path = SweepJournal::pathFor(req.checkpointDir, "truncate");
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1 + req.points.size());
    lines.pop_back();
    {
        std::ofstream out(path, std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }

    // A new process has an empty in-memory cache: the one missing
    // point must restore its warmup from the disk snapshot tier, so
    // the resumed run re-simulates zero warmups.
    SweepReport rerun = runJournaled(req, "truncate", false);
    EXPECT_EQ(rerun.timing.journaledPoints, req.points.size() - 1);
    EXPECT_EQ(rerun.timing.warmupRuns, 0u);
    EXPECT_EQ(rerun.timing.restoredRuns, 1u);
    EXPECT_EQ(rerun.timing.cacheDiskHits, 1u);
    EXPECT_EQ(resultsArray(rerun.results), firstResults);
    EXPECT_EQ(readLines(path).size(), 1 + req.points.size());
}

TEST(JournaledSweep, TornFinalJournalLineIsTolerated)
{
    SweepRequest req = smallRequest(freshDir("journal_torn"));
    runJournaled(req, "torn", false);

    // SIGKILL mid-append: the final line stops mid-document.
    {
        std::ofstream out(
            SweepJournal::pathFor(req.checkpointDir, "torn"),
            std::ios::app);
        out << "{\"point\": 1, \"outc";
    }

    SweepReport rerun = runJournaled(req, "torn", false);
    EXPECT_EQ(rerun.timing.journaledPoints, req.points.size());
    EXPECT_EQ(rerun.timing.warmupRuns, 0u);
}

TEST(JournaledSweep, RequestKeyMismatchNamesTheFreshEscapeHatch)
{
    SweepRequest req = smallRequest(freshDir("journal_mismatch"));
    runJournaled(req, "mismatch", false);

    // Same bench + checkpoint dir, different sweep identity.
    SweepRequest other = req;
    other.seed = 99;
    try {
        runJournaled(other, "mismatch", false);
        FAIL() << "expected JournalError";
    } catch (const JournalError &e) {
        EXPECT_NE(std::string(e.what()).find("--fresh"),
                  std::string::npos)
            << e.what();
    }

    // --fresh discards the stale journal and runs the new sweep.
    SweepReport run = runJournaled(other, "mismatch", true);
    EXPECT_EQ(run.timing.journaledPoints, 0u);
    EXPECT_EQ(run.results.size(), other.points.size());
}
