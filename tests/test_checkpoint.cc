/**
 * @file
 * Checkpoint subsystem tests: full-state save→restore→run must be
 * bit-identical to an uninterrupted run (unit level, file level, and
 * through the ExperimentRunner warmup-reuse fast path on the fig2 and
 * fig4 specs); warmup runs exactly once per unique configuration
 * group and disk caches serve later sweeps without any warmup; every
 * malformed checkpoint input raises an actionable CheckpointError,
 * never UB; restored caches replay identical hit/miss sequences.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bpred/fetch_engine.hh"
#include "mem/cache.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "sim/sweep_spec.hh"
#include "util/random.hh"

using namespace smt;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

SimConfig
smallConfig(const std::string &wl, EngineKind e, unsigned n, unsigned x,
            std::uint64_t seed = 0, Cycle warmup = 3'000,
            Cycle measure = 8'000)
{
    SimConfig cfg = table3Config(wl, e, n, x);
    cfg.warmupCycles = warmup;
    cfg.measureCycles = measure;
    cfg.seed = seed;
    return cfg;
}

std::vector<char>
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Restore `path` into a fresh simulator of `cfg`; must throw a
 *  CheckpointError whose message names the problem actionably. */
void
expectRestoreFails(const SimConfig &cfg, const std::string &path,
                   const std::string &expect_substring = "checkpoint")
{
    Simulator sim(cfg);
    try {
        sim.restoreCheckpoint(path);
        FAIL() << "restore of " << path << " did not throw";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(expect_substring),
                  std::string::npos)
            << "message was: " << e.what();
    }
}

/** One corrupted-byte variant of a valid checkpoint file. */
std::string
corruptedCopy(const std::vector<char> &valid, const std::string &name,
              std::size_t offset, char value)
{
    std::vector<char> bytes = valid;
    EXPECT_LT(offset, bytes.size());
    bytes[offset] = value;
    std::string path = tempPath(name);
    writeFileBytes(path, bytes);
    return path;
}

} // namespace

// ---------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------

TEST(CheckpointRoundTrip, FileSaveRestoreBitIdenticalAllEngines)
{
    // Every registered engine, zoo included: each engine's checkpoint
    // section (tag + payload) must round-trip bit-identically.
    for (EngineKind e : allEngines()) {
        SimConfig cfg = smallConfig("2_MIX", e, 2, 8, 42);
        std::string path = tempPath("roundtrip.ckpt");

        Simulator uninterrupted(cfg);
        uninterrupted.runWarmup();
        uninterrupted.saveCheckpoint(path);
        uninterrupted.runMeasure();

        Simulator restored(cfg);
        restored.restoreCheckpoint(path);
        restored.runMeasure();

        EXPECT_EQ(uninterrupted.registry().jsonString(),
                  restored.registry().jsonString())
            << "engine " << engineName(e);
        EXPECT_EQ(uninterrupted.registry().textString(),
                  restored.registry().textString())
            << "engine " << engineName(e);
        // The run did real work on both sides.
        EXPECT_GT(restored.registry().value("commit.insts"), 500.0);
        std::remove(path.c_str());
    }
}

TEST(CheckpointRoundTrip, InMemoryStringRoundTrip)
{
    SimConfig cfg = smallConfig("2_ILP", EngineKind::Stream, 1, 16, 7);

    Simulator a(cfg);
    a.runWarmup();
    std::string snapshot = a.saveCheckpointToString();
    a.runMeasure();

    Simulator b(cfg);
    b.restoreCheckpointFromString(snapshot);
    b.runMeasure();

    EXPECT_EQ(a.registry().jsonString(), b.registry().jsonString());
}

TEST(CheckpointRoundTrip, TraceReplayWorkloadRoundTrip)
{
    // Record a replayable trace, then checkpoint a replaying run:
    // the file position must be part of the restored state.
    std::string trace_path = tempPath("ckpt_replay.trc");
    SimConfig rec = smallConfig("gzip", EngineKind::GshareBtb, 1, 8);
    rec.recordPath = trace_path;
    rec.recordPadCycles = 2'000;
    {
        // Scoped: destruction closes the trace file for replay.
        Simulator recorder(rec);
        recorder.run();
    }

    SimConfig replay = rec;
    replay.recordPath.clear();
    replay.recordPadCycles = 0;
    replay.workload.traces = {trace_path};

    Simulator uninterrupted(replay);
    uninterrupted.runWarmup();
    std::string path = tempPath("replay_roundtrip.ckpt");
    uninterrupted.saveCheckpoint(path);
    uninterrupted.runMeasure();

    Simulator restored(replay);
    restored.restoreCheckpoint(path);
    restored.runMeasure();

    EXPECT_EQ(uninterrupted.registry().jsonString(),
              restored.registry().jsonString());
    std::remove(path.c_str());
    std::remove(trace_path.c_str());
}

TEST(CheckpointRoundTrip, RestoreRefusesRecordingRuns)
{
    SimConfig cfg = smallConfig("gzip", EngineKind::GshareBtb, 1, 8);
    std::string path = tempPath("refuse_record.ckpt");
    {
        Simulator sim(cfg);
        sim.runWarmup();
        sim.saveCheckpoint(path);
    }
    SimConfig recording = cfg;
    recording.recordPath = tempPath("refuse_record.trc");
    Simulator sim(recording);
    EXPECT_THROW(sim.restoreCheckpoint(path), CheckpointError);
    std::remove(path.c_str());
    std::remove(recording.recordPath.c_str());
}

// ---------------------------------------------------------------------
// Warmup-reuse fast path (the fig2/fig4 acceptance properties)
// ---------------------------------------------------------------------

namespace
{

/** Run a spec plain and with warmup reuse; both must match exactly. */
void
expectReuseBitIdentical(SweepSpec spec,
                        const std::string &checkpoint_dir,
                        SweepTiming &timing)
{
    SweepRequest plain_request = spec.makeRequest();
    plain_request.reuseWarmup = false;
    plain_request.checkpointDir.clear();
    auto plain = ExperimentRunner().run(plain_request).results;

    SweepRequest reuse_request = spec.makeRequest();
    reuse_request.reuseWarmup = true;
    reuse_request.checkpointDir = checkpoint_dir;
    SweepReport report = ExperimentRunner().run(reuse_request);
    const auto &reused = report.results;
    timing = report.timing;

    ASSERT_EQ(plain.size(), reused.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].ipfc, reused[i].ipfc) << "point " << i;
        EXPECT_EQ(plain[i].ipc, reused[i].ipc) << "point " << i;
        EXPECT_EQ(plain[i].statsJson, reused[i].statsJson)
            << "point " << i;
    }
    EXPECT_EQ(timing.gridPoints, reuse_request.points.size());
}

} // namespace

TEST(WarmupReuse, Fig2SpecBitIdenticalAndOneWarmupPerGroup)
{
    SweepSpec spec = SweepSpec::fromFile(defaultConfigDir() +
                                         "/fig2_single_thread.json");
    SweepTiming timing;
    expectReuseBitIdentical(spec, "", timing);
    // fig2's grid points all differ in core configuration, so every
    // group is its own warmup — exactly one warmup per unique
    // (workload, core-config) group, none reused, none direct.
    EXPECT_EQ(timing.warmupGroups, timing.gridPoints);
    EXPECT_EQ(timing.warmupRuns, timing.warmupGroups);
    EXPECT_EQ(timing.restoredRuns, 0u);
    EXPECT_EQ(timing.directRuns, 0u);
}

TEST(WarmupReuse, Fig4SpecBitIdenticalAndOneWarmupPerGroup)
{
    SweepSpec spec = SweepSpec::fromFile(defaultConfigDir() +
                                         "/fig4_two_threads.json");
    SweepTiming timing;
    expectReuseBitIdentical(spec, "", timing);
    EXPECT_EQ(timing.warmupGroups, timing.gridPoints);
    EXPECT_EQ(timing.warmupRuns, timing.warmupGroups);
    EXPECT_EQ(timing.restoredRuns, 0u);
}

TEST(WarmupReuse, DuplicateConfigPointsShareOneWarmup)
{
    // Two sweep blocks expanding to the identical configuration: the
    // group machinery must run the warmup once and restore it for
    // the duplicate, with bit-identical results.
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "dup",
        "warmupCycles": 3000,
        "measureCycles": 8000,
        "sweeps": [
            {"workloads": ["2_MIX"], "engines": ["stream"],
             "policies": ["1.8"]},
            {"workloads": ["2_MIX"], "engines": ["stream"],
             "policies": ["1.8"]}
        ]
    })");
    SweepTiming timing;
    expectReuseBitIdentical(spec, "", timing);
    EXPECT_EQ(timing.gridPoints, 2u);
    EXPECT_EQ(timing.warmupGroups, 1u);
    EXPECT_EQ(timing.warmupRuns, 1u);
    EXPECT_EQ(timing.restoredRuns, 1u);
}

TEST(WarmupReuse, DiskCacheServesLaterSweepsWithoutWarmup)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "cache",
        "warmupCycles": 3000,
        "measureCycles": 8000,
        "workloads": ["2_MIX"],
        "engines": ["gshare+BTB", "stream"],
        "policies": ["1.8"]
    })");
    std::string dir = ::testing::TempDir() + "ckpt_cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    SweepRequest request = spec.makeRequest();
    request.reuseWarmup = true;
    request.checkpointDir = dir;

    // Each run() call gets a fresh in-memory cache, so the second
    // sweep can only be served by the persisted disk tier.
    SweepReport first = ExperimentRunner().run(request);
    const auto &cold = first.results;
    EXPECT_EQ(first.timing.warmupRuns, 2u);
    EXPECT_EQ(first.timing.restoredRuns, 0u);

    // A second sweep over the same configurations restores every
    // point from the persisted snapshots: zero warmups, identical
    // results.
    SweepReport second = ExperimentRunner().run(request);
    const auto &warm = second.results;
    EXPECT_EQ(second.timing.warmupRuns, 0u);
    EXPECT_EQ(second.timing.restoredRuns, request.points.size());
    EXPECT_EQ(second.timing.cacheDiskHits + second.timing.cacheHits,
              second.timing.restoredRuns);
    EXPECT_GE(second.timing.cacheDiskHits, 1u);
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].ipfc, warm[i].ipfc);
        EXPECT_EQ(cold[i].ipc, warm[i].ipc);
        EXPECT_EQ(cold[i].statsJson, warm[i].statsJson);
    }
}

TEST(WarmupReuse, RecordingPointsBypassTheReusePath)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "rec",
        "warmupCycles": 2000,
        "measureCycles": 5000,
        "workloads": ["gzip"],
        "engines": ["gshare+BTB"],
        "policies": ["1.8"]
    })");
    SweepRequest request = spec.makeRequest();
    ASSERT_EQ(request.points.size(), 1u);
    request.points[0].recordPath = tempPath("reuse_bypass.trc");
    request.reuseWarmup = true;

    SweepReport report = ExperimentRunner().run(request);
    EXPECT_EQ(report.timing.directRuns, 1u);
    EXPECT_EQ(report.timing.warmupRuns, 0u);
    EXPECT_GT(report.results[0].ipc, 0.0);
    std::remove(request.points[0].recordPath.c_str());
}

TEST(RunnerGuards, DuplicateRecordPathsFailFast)
{
    SweepRequest request;
    request.warmupCycles = 1'000;
    request.measureCycles = 2'000;
    request.points = {
        {"gzip", EngineKind::GshareBtb, 1, 8},
        {"gzip", EngineKind::GskewFtb, 1, 8},
    };
    request.points[0].recordPath = tempPath("dup.trc");
    request.points[1].recordPath = request.points[0].recordPath;
    try {
        ExperimentRunner().run(request);
        FAIL() << "duplicate record paths did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("overwrite"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Malformed checkpoint inputs: actionable CheckpointErrors, never UB
// ---------------------------------------------------------------------

namespace
{

/** Shared valid checkpoint + config for the corruption tests. */
class MalformedCheckpoint : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cfg = new SimConfig(smallConfig("gzip", EngineKind::Stream, 1,
                                        8, 0, 500, 1'000));
        validPath = new std::string(tempPath("valid.ckpt"));
        Simulator sim(*cfg);
        sim.runWarmup();
        sim.saveCheckpoint(*validPath);
        valid = new std::vector<char>(readFileBytes(*validPath));
    }

    static void
    TearDownTestSuite()
    {
        std::remove(validPath->c_str());
        delete valid;
        delete validPath;
        delete cfg;
    }

    static SimConfig *cfg;
    static std::string *validPath;
    static std::vector<char> *valid;
};

SimConfig *MalformedCheckpoint::cfg = nullptr;
std::string *MalformedCheckpoint::validPath = nullptr;
std::vector<char> *MalformedCheckpoint::valid = nullptr;

/** Offset of the component-count field in the header. */
constexpr std::size_t countOffset = 8 + 2 + 2;

/** Offset of the config-key length field. */
constexpr std::size_t keyLenOffset = countOffset + 4;

} // namespace

TEST_F(MalformedCheckpoint, ValidFileRestores)
{
    Simulator sim(*cfg);
    sim.restoreCheckpoint(*validPath); // must not throw
    sim.runMeasure();
    EXPECT_GT(sim.registry().value("commit.insts"), 0.0);
}

TEST_F(MalformedCheckpoint, NonexistentFile)
{
    expectRestoreFails(*cfg, tempPath("does_not_exist.ckpt"),
                       "cannot open");
}

TEST_F(MalformedCheckpoint, EmptyFile)
{
    std::string path = tempPath("empty.ckpt");
    writeFileBytes(path, {});
    expectRestoreFails(*cfg, path, "too short");
}

TEST_F(MalformedCheckpoint, BadMagic)
{
    expectRestoreFails(
        *cfg, corruptedCopy(*valid, "badmagic.ckpt", 0, 'X'),
        "not a checkpoint file");
}

TEST_F(MalformedCheckpoint, VersionSkew)
{
    expectRestoreFails(*cfg,
                       corruptedCopy(*valid, "badver.ckpt", 8, 99),
                       "version");
}

TEST_F(MalformedCheckpoint, ReservedFieldNonzero)
{
    expectRestoreFails(*cfg,
                       corruptedCopy(*valid, "badres.ckpt", 10, 1),
                       "reserved");
}

TEST_F(MalformedCheckpoint, ZeroComponentCount)
{
    std::vector<char> bytes = *valid;
    for (int i = 0; i < 4; ++i)
        bytes[countOffset + i] = 0;
    std::string path = tempPath("zerocount.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "zero components");
}

TEST_F(MalformedCheckpoint, ComponentCountTooLow)
{
    std::vector<char> bytes = *valid;
    bytes[countOffset] = 1;
    for (int i = 1; i < 4; ++i)
        bytes[countOffset + i] = 0;
    std::string path = tempPath("lowcount.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "component-count mismatch");
}

TEST_F(MalformedCheckpoint, ComponentCountTooHigh)
{
    std::vector<char> bytes = *valid;
    bytes[countOffset] = static_cast<char>(
        static_cast<unsigned char>(bytes[countOffset]) + 5);
    std::string path = tempPath("highcount.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "component-count mismatch");
}

TEST_F(MalformedCheckpoint, HugeStringLength)
{
    std::vector<char> bytes = *valid;
    for (int i = 0; i < 4; ++i)
        bytes[keyLenOffset + i] = static_cast<char>(0xff);
    std::string path = tempPath("hugestr.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "format limit");
}

TEST_F(MalformedCheckpoint, TruncatedHeader)
{
    std::vector<char> bytes(valid->begin(), valid->begin() + 10);
    std::string path = tempPath("trunchdr.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path);
}

TEST_F(MalformedCheckpoint, TruncatedMidPayload)
{
    std::vector<char> bytes(valid->begin(),
                            valid->begin() + valid->size() / 2);
    std::string path = tempPath("truncmid.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path);
}

TEST_F(MalformedCheckpoint, MissingTrailer)
{
    std::vector<char> bytes(valid->begin(), valid->end() - 8);
    std::string path = tempPath("notrailer.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "trailer");
}

TEST_F(MalformedCheckpoint, CorruptTrailer)
{
    expectRestoreFails(
        *cfg,
        corruptedCopy(*valid, "badtrailer.ckpt", valid->size() - 4,
                      '?'),
        "trailer");
}

TEST_F(MalformedCheckpoint, TrailingGarbage)
{
    std::vector<char> bytes = *valid;
    bytes.push_back('!');
    std::string path = tempPath("garbage.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "trailing bytes");
}

TEST_F(MalformedCheckpoint, WrongComponentName)
{
    // The first section name ("core.rob") sits right after the
    // config key; corrupt its first character.
    std::uint32_t key_len =
        static_cast<unsigned char>((*valid)[keyLenOffset]) |
              (static_cast<unsigned char>((*valid)[keyLenOffset + 1])
               << 8) |
              (static_cast<unsigned char>((*valid)[keyLenOffset + 2])
               << 16) |
              (static_cast<unsigned char>((*valid)[keyLenOffset + 3])
               << 24);
    std::size_t name_offset = keyLenOffset + 4 + key_len + 4;
    expectRestoreFails(
        *cfg,
        corruptedCopy(*valid, "badname.ckpt", name_offset, 'X'),
        "order mismatch");
}

TEST_F(MalformedCheckpoint, ConfigKeyMismatchDifferentSeed)
{
    SimConfig other = *cfg;
    other.seed = 12345;
    expectRestoreFails(other, *validPath,
                       "different configuration");
}

TEST_F(MalformedCheckpoint, ConfigKeyMismatchDifferentEngine)
{
    SimConfig other =
        smallConfig("gzip", EngineKind::GshareBtb, 1, 8, 0, 500,
                    1'000);
    expectRestoreFails(other, *validPath,
                       "different configuration");
}

TEST_F(MalformedCheckpoint, ConfigKeyMismatchDifferentWarmup)
{
    SimConfig other = *cfg;
    other.warmupCycles += 1;
    expectRestoreFails(other, *validPath,
                       "different configuration");
}

TEST_F(MalformedCheckpoint, SingleBitFlipsAnywhereAreRejected)
{
    // Every section payload carries an FNV-1a checksum, and the
    // header, section names, sizes and trailer are checked
    // structurally, so a flipped bit anywhere fails the restore.
    // Sample 97 offsets spread across the whole file, one bit each.
    const std::size_t n = valid->size();
    const std::size_t samples = 97;
    std::string path = tempPath("bitflip.ckpt");
    for (std::size_t k = 0; k < samples; ++k) {
        std::size_t offset = k * (n - 1) / (samples - 1);
        std::vector<char> bytes = *valid;
        bytes[offset] = static_cast<char>(bytes[offset] ^ (1 << (k % 8)));
        writeFileBytes(path, bytes);
        Simulator sim(*cfg);
        EXPECT_THROW(sim.restoreCheckpoint(path), CheckpointError)
            << "bit " << k % 8 << " of byte " << offset << " of " << n;
    }
}

TEST_F(MalformedCheckpoint, PayloadChecksumMismatchNamesTheComponent)
{
    // Flip the low bit of the last section's last payload byte (just
    // before its checksum and the trailer): the value still decodes,
    // so only the checksum can notice.
    std::vector<char> bytes = *valid;
    std::size_t last = bytes.size() - 8 - 8 - 1;
    bytes[last] = static_cast<char>(bytes[last] ^ 0x01);
    std::string path = tempPath("badsum.ckpt");
    writeFileBytes(path, bytes);
    expectRestoreFails(*cfg, path, "checksum");
}

TEST_F(MalformedCheckpoint, RestoreIntoUsedSimulatorRefused)
{
    Simulator sim(*cfg);
    sim.run();
    EXPECT_THROW(sim.restoreCheckpoint(*validPath), CheckpointError);
}

// ---------------------------------------------------------------------
// Codec-level range checks: corrupt index fields must error, not UB
// ---------------------------------------------------------------------

namespace
{

/** Round-trip one EngineCheckpoint through the codec; the restore of
 *  a tampered snapshot must throw, never index out of bounds. */
void
expectEngineCheckpointRejected(const EngineCheckpoint &c,
                               const std::string &expect_substring)
{
    std::ostringstream os(std::ios::binary);
    {
        CheckpointWriter w(os, "<codec-test>", "k");
        w.begin("x");
        c.save(w);
        w.end();
        w.finish();
    }
    std::istringstream is(std::move(os).str(), std::ios::binary);
    CheckpointReader r(is, "<codec-test>");
    r.begin("x");
    EngineCheckpoint d;
    try {
        d.restore(r);
        FAIL() << "tampered EngineCheckpoint restored";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(expect_substring),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(MalformedCodec, RasTosBeyondSnapshotEntriesRejected)
{
    ReturnAddressStack ras(16);
    ras.push(0x100);
    EngineCheckpoint c;
    c.ras = ras.snapshot();
    c.ras.tos = 99; // beyond the 16 serialized entries
    expectEngineCheckpointRejected(c, "top-of-stack");
}

TEST(MalformedCodec, RasTosWithoutEntriesRejected)
{
    EngineCheckpoint c;
    c.ras.tos = 7; // no stack copy at all
    expectEngineCheckpointRejected(c, "top-of-stack");
}

TEST(MalformedCodec, PathHistoryPositionOutOfRangeRejected)
{
    EngineCheckpoint c;
    c.path.pos = 200; // ring has PathHistory::maxDepth slots
    expectEngineCheckpointRejected(c, "out of range");
}

// ---------------------------------------------------------------------
// Cache restore regression: identical hit/miss sequences
// ---------------------------------------------------------------------

TEST(CacheRestore, RestoredCacheReplaysIdenticalHitMissSequence)
{
    CacheParams params{"L1T", 8 * 1024, 2, 64, 4, 1, 4};
    Cache warm(params, nullptr, 50);
    Cache restored(params, nullptr, 50);

    // Warm with a deterministic pseudo-random access pattern that
    // exercises fills, evictions and LRU reordering.
    Rng rng(0xc0ffee);
    Cycle now = 0;
    for (int i = 0; i < 4'000; ++i) {
        Addr addr = rng.below(64 * 1024) & ~Addr(7);
        warm.access(addr, (i % 7) == 0, now);
        now += 1 + (i % 3);
    }

    // Round-trip the warm cache state through the checkpoint codec.
    std::ostringstream os(std::ios::binary);
    {
        CheckpointWriter w(os, "<cache-test>", "cache-key");
        w.begin("cache");
        warm.save(w);
        w.end();
        w.finish();
    }
    std::istringstream is(std::move(os).str(), std::ios::binary);
    CheckpointReader r(is, "<cache-test>");
    EXPECT_EQ(r.configKey(), "cache-key");
    r.begin("cache");
    restored.restore(r);
    r.end();
    r.finish();

    EXPECT_EQ(warm.stats().accesses, restored.stats().accesses);
    EXPECT_EQ(warm.stats().misses, restored.stats().misses);
    EXPECT_EQ(warm.stats().evictions, restored.stats().evictions);

    // Both caches must now agree access-for-access: same latencies
    // (hits and misses in the same places) and the same LRU
    // victimization decisions throughout.
    Rng probe(0xfeedface);
    for (int i = 0; i < 4'000; ++i) {
        Addr addr = probe.below(64 * 1024) & ~Addr(7);
        bool write = (i % 5) == 0;
        Cycle lat_warm = warm.access(addr, write, now);
        Cycle lat_restored = restored.access(addr, write, now);
        ASSERT_EQ(lat_warm, lat_restored) << "access " << i;
        now += 1 + (i % 4);
    }
    EXPECT_EQ(warm.stats().misses, restored.stats().misses);
    EXPECT_EQ(warm.stats().evictions, restored.stats().evictions);
    EXPECT_EQ(warm.stats().mshrMerges, restored.stats().mshrMerges);
}

// ---------------------------------------------------------------------
// Spec-level wiring
// ---------------------------------------------------------------------

TEST(CheckpointSpec, CheckpointAfterWarmupSpecKeyParsesAndRuns)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "speckey",
        "warmupCycles": 2000,
        "measureCycles": 5000,
        "checkpointAfterWarmup": true,
        "workloads": ["2_MIX"],
        "engines": ["stream"],
        "policies": ["1.8"]
    })");
    EXPECT_TRUE(spec.checkpointAfterWarmup);

    SweepReport report = runSpec(spec);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_GT(report.results[0].ipc, 0.0);
    EXPECT_EQ(report.timing.warmupRuns, 1u);
}

TEST(CheckpointSpec, BadCheckpointKeysRejected)
{
    EXPECT_THROW(SweepSpec::fromString(R"({
        "name": "bad", "measureCycles": 1000,
        "checkpointAfterWarmup": "yes",
        "workloads": ["gzip"], "policies": ["1.8"]
    })"),
                 SpecError);
    EXPECT_THROW(SweepSpec::fromString(R"({
        "name": "bad", "measureCycles": 1000,
        "checkpointDir": "",
        "workloads": ["gzip"], "policies": ["1.8"]
    })"),
                 SpecError);
}
