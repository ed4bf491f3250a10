/**
 * @file
 * Tests for the synthetic workload substrate: branch/memory behaviour
 * models, benchmark profiles, program builder and trace streams.
 * Includes the Table 1 calibration property (dynamic basic-block size
 * within tolerance for all 12 SPECint2000 models).
 */

#include <cctype>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "util/sha256.hh"
#include "workload/branch_model.hh"
#include "workload/memory_model.hh"
#include "workload/profiles.hh"
#include "workload/program_builder.hh"
#include "workload/trace.hh"
#include "workload/workloads.hh"

namespace smt
{
namespace
{

TEST(BranchModelTest, BiasedRateMatches)
{
    BranchModel m = BranchModel::makeBiased(0.9, 123);
    int taken = 0;
    for (int i = 0; i < 20000; ++i)
        taken += m.next(0, 0);
    EXPECT_NEAR(taken / 20000.0, 0.9, 0.02);
    EXPECT_NEAR(m.expectedTakenRate(), 0.9, 1e-6);
}

TEST(BranchModelTest, LoopPattern)
{
    BranchModel m = BranchModel::makeLoop(4);
    // taken, taken, taken, not-taken, repeating
    for (int rep = 0; rep < 5; ++rep) {
        EXPECT_TRUE(m.next(0, 0));
        EXPECT_TRUE(m.next(0, 0));
        EXPECT_TRUE(m.next(0, 0));
        EXPECT_FALSE(m.next(0, 0));
    }
    EXPECT_DOUBLE_EQ(m.expectedTakenRate(), 0.75);
}

TEST(BranchModelTest, CorrelatedIsDeterministicInHistory)
{
    BranchModel a = BranchModel::makeCorrelated(4, 99);
    BranchModel b = BranchModel::makeCorrelated(4, 99);
    for (std::uint64_t h = 0; h < 64; ++h)
        EXPECT_EQ(a.next(h, 0), b.next(h, 0));
}

TEST(BranchModelTest, CorrelatedIgnoresBitsBeyondWindow)
{
    BranchModel a = BranchModel::makeCorrelated(3, 7);
    BranchModel b = BranchModel::makeCorrelated(3, 7);
    // Same low 3 bits, different high bits: same outcome.
    EXPECT_EQ(a.next(0b101, 0), b.next(0b11111101, 0));
}

TEST(BranchModelTest, PathCorrelatedDeterministic)
{
    BranchModel a = BranchModel::makeCorrelatedPath(1, 5);
    BranchModel b = BranchModel::makeCorrelatedPath(1, 5);
    for (std::uint64_t sig = 0; sig < 32; ++sig)
        EXPECT_EQ(a.next(0, sig), b.next(0, sig));
}

TEST(BranchModelTest, RandomIsFair)
{
    BranchModel m = BranchModel::makeRandom(42);
    int taken = 0;
    for (int i = 0; i < 20000; ++i)
        taken += m.next(0, 0);
    EXPECT_NEAR(taken / 20000.0, 0.5, 0.02);
}

TEST(IndirectModelTest, DominantTarget)
{
    IndirectModel m({0x100, 0x200, 0x300}, 0.8, 7);
    int dominant = 0;
    std::set<Addr> seen;
    for (int i = 0; i < 10000; ++i) {
        Addr t = m.next();
        seen.insert(t);
        dominant += t == 0x100;
    }
    EXPECT_NEAR(dominant / 10000.0, 0.8, 0.03);
    EXPECT_GE(seen.size(), 2u);
}

TEST(MemoryModelTest, StrideWalksRegion)
{
    MemoryModel m = MemoryModel::makeStride(0x1000, 256, 8);
    Addr first = m.next();
    EXPECT_EQ(first, 0x1000u);
    EXPECT_EQ(m.next(), 0x1008u);
    // Wraps within the region.
    for (int i = 0; i < 100; ++i) {
        Addr a = m.next();
        EXPECT_GE(a, 0x1000u);
        EXPECT_LT(a, 0x1100u);
    }
}

TEST(MemoryModelTest, RandomStaysInRegionAndFavorsHot)
{
    MemoryModel m =
        MemoryModel::makeRandom(0x10000, 1 << 20, 16 * 1024, 0.8, 3);
    int hot = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr a = m.next();
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x10000u + (1u << 20));
        hot += a < 0x10000u + 16 * 1024;
    }
    // At least hotProb of accesses in the hot subset (plus cold ones
    // that land there by chance).
    EXPECT_GT(hot / 20000.0, 0.75);
}

TEST(MemoryModelTest, AddressesAligned)
{
    MemoryModel m =
        MemoryModel::makeChase(0x10000, 1 << 20, 8192, 0.5, 11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(m.next() % 8, 0u);
}

TEST(ProfilesTest, AllTwelveBenchmarks)
{
    EXPECT_EQ(allProfiles().size(), 12u);
    std::set<std::string> names;
    for (const auto &p : allProfiles())
        names.insert(p.name);
    EXPECT_EQ(names.size(), 12u);
    EXPECT_TRUE(names.count("gzip"));
    EXPECT_TRUE(names.count("twolf"));
}

TEST(ProfilesTest, ClassesMatchPaper)
{
    EXPECT_EQ(profileFor("mcf").benchClass, BenchClass::MEM);
    EXPECT_EQ(profileFor("twolf").benchClass, BenchClass::MEM);
    EXPECT_EQ(profileFor("vpr").benchClass, BenchClass::MEM);
    EXPECT_EQ(profileFor("gzip").benchClass, BenchClass::ILP);
    EXPECT_EQ(profileFor("eon").benchClass, BenchClass::ILP);
}

TEST(ProfilesTest, Table1BlockSizes)
{
    EXPECT_NEAR(profileFor("gzip").avgBlockSize, 11.02, 1e-9);
    EXPECT_NEAR(profileFor("mcf").avgBlockSize, 3.92, 1e-9);
    EXPECT_NEAR(profileFor("gcc").avgBlockSize, 5.76, 1e-9);
    EXPECT_NEAR(profileFor("twolf").avgBlockSize, 8.00, 1e-9);
}

/**
 * sha256 over everything an image holds: every StaticInst field, the
 * block and function tables, the data region, and every model's
 * checkpoint payload. A checkpoint carries only a model's mutable
 * state, so each model first makes a few draws on a copy; the drawn
 * values and the state after them depend on its static shape (kind,
 * seed, threshold, trip count, targets).
 */
std::string
imageDigest(const BenchmarkImage &img)
{
    Sha256 h;
    auto put = [&h](std::uint64_t v) { h.update(&v, sizeof v); };
    const StaticProgram &prog = img.program;
    put(prog.base());
    put(prog.entry());
    put(prog.numInsts());
    for (std::size_t i = 0; i < prog.numInsts(); ++i) {
        const StaticInst &si = *prog.lookup(prog.base() + i * instBytes);
        put(si.pc);
        put(static_cast<std::uint64_t>(si.op));
        put(si.src1);
        put(si.src2);
        put(si.dst);
        put(si.target);
        put(si.modelId);
        put(si.blockIndex);
    }
    put(prog.numBlocks());
    for (std::uint32_t b = 0; b < prog.numBlocks(); ++b) {
        const BasicBlock &bb = prog.block(b);
        put(bb.startPC);
        put(bb.numInsts);
        put(bb.index);
        put(bb.functionId);
    }
    put(prog.numFunctions());
    for (std::uint32_t f = 0; f < prog.numFunctions(); ++f) {
        const StaticFunction &fn = prog.function(f);
        put(fn.firstBlock);
        put(fn.numBlocks);
        put(fn.entryPC);
    }
    put(img.dataBase);
    put(img.dataBytes);

    constexpr int draws = 8;
    std::ostringstream os(std::ios::binary);
    CheckpointWriter w(os, "<image-digest>", "");
    w.begin("models");
    auto payload_start = os.tellp();
    w.u32(static_cast<std::uint32_t>(img.branchModels.size()));
    for (BranchModel m : img.branchModels) {
        for (int i = 0; i < draws; ++i)
            w.b(m.next(0x9e3779b97f4a7c15ULL * i, 0x5bd1e995ULL * i));
        m.save(w);
    }
    w.u32(static_cast<std::uint32_t>(img.indirectModels.size()));
    for (IndirectModel m : img.indirectModels) {
        w.u32(static_cast<std::uint32_t>(m.targets().size()));
        for (Addr t : m.targets())
            w.u64(t);
        for (int i = 0; i < draws; ++i)
            w.u64(m.next());
        m.save(w);
    }
    w.u32(static_cast<std::uint32_t>(img.memModels.size()));
    for (MemoryModel m : img.memModels) {
        for (int i = 0; i < draws; ++i)
            w.u64(m.next());
        m.save(w);
    }
    std::string bytes = os.str();
    h.update(bytes.data() + payload_start,
             bytes.size() - static_cast<std::size_t>(payload_start));
    return h.hexDigest();
}

/** One pinned image: a profile (or a Table 2 workload's thread) at a
 *  program seed, and its imageDigest. */
struct PinnedImage
{
    const char *name;
    std::uint64_t seed;
    unsigned thread; //!< thread index for workload names
    const char *digest;
};

/**
 * The digests below were computed before the builder's calibration
 * probe, call-target lookup and instruction emission were reworked
 * for speed; any change to how an image is built must leave every one
 * of them unchanged, or it changes every simulated result.
 */
const PinnedImage pinnedImages[] = {
    {"gzip", 0, 0,
     "35413489baddd39589018a3892620d3760894c7cde4046c2d49134f5182f69c5"},
    {"vpr", 0, 0,
     "c3062964f74487a746e75f763e11c644257149e2c26e2f5f6faa5f3fddaf7c7a"},
    {"gcc", 0, 0,
     "d7e0d442718127e10527d3863187da9c3abb0d975e3bce36df34935bdce582fd"},
    {"mcf", 0, 0,
     "7b8c70acf3ccf4724dda47e6ae9311d2629212b8ad385f57a4b8bd8ad2632002"},
    {"crafty", 0, 0,
     "3aafbbb64e0a055062040ebf499d3a8570141cc0ecdad0d011e7075ff0776165"},
    {"parser", 0, 0,
     "63cff0873bb6c23ba0d05366ee06bd40344c7b0884fbfcf60e3041b41c2f394b"},
    {"eon", 0, 0,
     "c658ccd52924f84898c31d1220863626dbc649f02e258848a30cd4d90ba8a15d"},
    {"perlbmk", 0, 0,
     "1f70a726061cba1bb46e8fe48c34776dd8797fbfbd2eb95d7708eb14adae7487"},
    {"gap", 0, 0,
     "b288cda4009d1a47793db85830cc2608b560b5e44ba5beac4e83fc57d7b64dbb"},
    {"vortex", 0, 0,
     "b632ebde1b9c59a7e280be46d4a58bddf720e09a339b027ef617936c3ad2ae8e"},
    {"bzip2", 0, 0,
     "0045ba46a55206089205d8e00331281e91a536873911de3d27d11f1204a5bad8"},
    {"twolf", 0, 0,
     "740bd59881b3aad243c8023a576d12ed23abf00385d85dc72247dc270b5a8642"},
    {"gzip", 747, 0,
     "8e626dfa35988381199ab16234d7a2aa9d5b8e0cafc2a2d6dbc54d8dce788e28"},
    {"vpr", 747, 0,
     "f05dbeb6331d4ca7553764a0994f122482edc89b459d71b5d4403ea70a8648a6"},
    {"gcc", 747, 0,
     "2667dab8acbeaa68b90fd7a95dcc51a7964d885f66da3cecd82733cb5d8e6b00"},
    {"mcf", 747, 0,
     "d72f35c9ce5392347c67ccc08002247efb548ff54268137c45c336001cac50e3"},
    {"crafty", 747, 0,
     "31c9ecb70923317838f5f7fe327a2aacf4aa68a701bd857dc865dd921fcd510a"},
    {"parser", 747, 0,
     "6cc1f8b03bbb4e8932fe5c4b60bb97adef3ce8d39f528c5d8dfa3066a340da6a"},
    {"eon", 747, 0,
     "09a8367039069210423d4d3e24304a88c8bbdc2b46624cc16e22edede48cfb17"},
    {"perlbmk", 747, 0,
     "3af05d7ba1998a81375e0c4fa5eec52c8d5087888d17ac333b8c80d979b33c67"},
    {"gap", 747, 0,
     "0ea76473a5e6a9256224e5f39b11b6ee7fb94da8a437ab7d13dbfcab9861e2e1"},
    {"vortex", 747, 0,
     "f0720fb03a8d1eb14e6e5cf15783f4a3911784b113b4252609defcc47aa0a02e"},
    {"bzip2", 747, 0,
     "ee8eb2fc6703052b8546ea6a824f2225549507513131b9ab4bfe0c8728918a1b"},
    {"twolf", 747, 0,
     "ce4db952704e57904d2c3bde507c286b8cbd29a500528b8c40316806085ee060"},
    {"2_ILP", 192, 0,
     "32d6464ad91b9f166c18ecf69938b6140eef2b16e1911a39df93d3950fa6ae94"},
    {"2_ILP", 192, 1,
     "d9411548dc945d54aa549664e930ce11a7d1819b746bc0b58feb927304713cb2"},
    {"2_MEM", 192, 0,
     "cea8d2d27fef58fb63b0a56a049597fcbf28d677449fd664dfe4c1d4b1e21f64"},
    {"2_MEM", 192, 1,
     "e3269dd8ebec1aeb05f1049fe393ac7a86f3735b94ee0ada2c4c40ac20374664"},
};

TEST(BuilderTest, ImagesMatchPinnedDigests)
{
    for (const PinnedImage &p : pinnedImages) {
        std::string got;
        if (std::isdigit(static_cast<unsigned char>(p.name[0]))) {
            WorkloadImages w = buildWorkload(workloadFor(p.name), p.seed);
            got = imageDigest(*w.images.at(p.thread));
        } else {
            got = imageDigest(
                buildImage(profileFor(p.name), 0x400000, 0x40000000,
                           p.seed));
        }
        EXPECT_EQ(got, p.digest)
            << p.name << " seed " << p.seed << " thread " << p.thread;
    }
}

TEST(BuilderTest, ProgramsAreSubstantial)
{
    auto img = buildImage(profileFor("gcc"), 0x400000, 0x40000000);
    // ~160KB of code.
    EXPECT_GT(img.program.numInsts(), 20'000u);
    EXPECT_GT(img.program.numBlocks(), 2'000u);
    EXPECT_GT(img.program.numFunctions(), 50u);
    EXPECT_FALSE(img.branchModels.empty());
    EXPECT_FALSE(img.memModels.empty());
}

TEST(BuilderTest, EveryCtiHasValidTarget)
{
    auto img = buildImage(profileFor("vortex"), 0x400000, 0x40000000);
    const auto &prog = img.program;
    for (std::size_t i = 0; i < prog.numInsts(); ++i) {
        Addr pc = prog.base() + i * instBytes;
        const StaticInst *si = prog.lookup(pc);
        ASSERT_NE(si, nullptr);
        if (si->op == OpClass::CondBranch ||
            si->op == OpClass::Jump ||
            si->op == OpClass::CallDirect) {
            EXPECT_TRUE(prog.contains(si->target))
                << "CTI at " << std::hex << pc;
        }
    }
}

/** Table 1 calibration: the property the substitution relies on. */
class Table1Calibration
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Table1Calibration, DynamicBlockSizeNearPaperValue)
{
    const auto &prof = profileFor(GetParam());
    auto img = buildImage(prof, 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    for (int i = 0; i < 300'000; ++i)
        trace.next();
    double measured = trace.stats().avgBlockSize();
    EXPECT_NEAR(measured, prof.avgBlockSize,
                prof.avgBlockSize * 0.25)
        << prof.name << ": measured " << measured << " vs Table 1 "
        << prof.avgBlockSize;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, Table1Calibration,
                         ::testing::Values("gzip", "vpr", "gcc", "mcf",
                                           "crafty", "parser", "eon",
                                           "perlbmk", "gap", "vortex",
                                           "bzip2", "twolf"));

/**
 * The calibration probe walks whole blocks; it must agree bit for bit
 * with a record-by-record stream over the same window, for the window
 * the builder uses and for windows ending mid-block and exactly on a
 * terminator.
 */
TEST(TraceTest, BlockWalkMatchesStreamStats)
{
    constexpr std::uint64_t window = 200'000;
    for (const char *name : {"gzip", "vpr", "gcc", "mcf", "crafty",
                             "parser", "eon", "perlbmk", "gap", "vortex",
                             "bzip2", "twolf"}) {
        for (std::uint64_t seed : {0, 1, 747}) {
            auto img = buildImage(profileFor(name), 0x400000, 0x40000000,
                                  seed);
            SyntheticTraceStream trace(img);
            bool checked_term = false, checked_mid = false;
            for (std::uint64_t n = 1; n <= window; ++n) {
                TraceRecord r = trace.next();
                bool at_term = r.si->isControl();
                bool check = n == window ||
                             (n >= window / 2 &&
                              (at_term ? !checked_term : !checked_mid));
                if (!check)
                    continue;
                (at_term ? checked_term : checked_mid) = true;
                EXPECT_EQ(dynamicAvgBlockSize(img, n),
                          trace.stats().avgBlockSize())
                    << name << " seed " << seed << " after " << n
                    << (at_term ? " (terminator)" : " (mid-block)");
            }
            EXPECT_TRUE(checked_term && checked_mid) << name;
        }
    }
}

TEST(TraceTest, InfiniteAndDeterministic)
{
    auto img = buildImage(profileFor("gzip"), 0x400000, 0x40000000);
    SyntheticTraceStream a(img), b(img);
    for (int i = 0; i < 50'000; ++i) {
        TraceRecord ra = a.next();
        TraceRecord rb = b.next();
        ASSERT_EQ(ra.pc(), rb.pc());
        ASSERT_EQ(ra.taken, rb.taken);
        ASSERT_EQ(ra.nextPc, rb.nextPc);
        ASSERT_EQ(ra.memAddr, rb.memAddr);
    }
}

TEST(TraceTest, NextPcChainsConsistently)
{
    auto img = buildImage(profileFor("parser"), 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    TraceRecord prev = trace.next();
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord cur = trace.next();
        ASSERT_EQ(cur.pc(), prev.nextPc);
        prev = cur;
    }
}

TEST(TraceTest, MemoryAddressesOnlyOnMemoryOps)
{
    auto img = buildImage(profileFor("mcf"), 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord r = trace.next();
        if (r.si->isMemory()) {
            EXPECT_NE(r.memAddr, invalidAddr);
            EXPECT_GE(r.memAddr, img.dataBase);
        } else {
            EXPECT_EQ(r.memAddr, invalidAddr);
        }
    }
}

TEST(TraceTest, TakenCtisMatchControlFlow)
{
    auto img = buildImage(profileFor("eon"), 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord r = trace.next();
        if (!r.si->isControl()) {
            EXPECT_FALSE(r.taken);
            EXPECT_EQ(r.nextPc, r.pc() + instBytes);
        } else if (r.taken && r.si->isConditional()) {
            // Taken conditionals go to their static target (which may
            // legitimately equal the fall-through for a branch to the
            // next block).
            EXPECT_EQ(r.nextPc, r.si->target);
        }
    }
}

TEST(WorkloadsTest, Table2Definitions)
{
    EXPECT_EQ(table2Workloads().size(), 10u);
    EXPECT_EQ(workloadFor("2_MIX").benchmarks,
              (std::vector<std::string>{"gzip", "twolf"}));
    EXPECT_EQ(workloadFor("8_ILP").benchmarks.size(), 8u);
    EXPECT_EQ(workloadFor("4_MEM").benchmarks,
              (std::vector<std::string>{"mcf", "twolf", "vpr",
                                        "perlbmk"}));
}

TEST(WorkloadsTest, BuildWorkloadDisjointAddressSpaces)
{
    WorkloadImages w = buildWorkload(workloadFor("4_MIX"));
    ASSERT_EQ(w.numThreads(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = i + 1; j < 4; ++j) {
            const auto &a = *w.images[i];
            const auto &b = *w.images[j];
            bool code_disjoint = a.program.limit() <= b.program.base() ||
                                 b.program.limit() <= a.program.base();
            bool data_disjoint =
                a.dataBase + a.dataBytes <= b.dataBase ||
                b.dataBase + b.dataBytes <= a.dataBase;
            EXPECT_TRUE(code_disjoint);
            EXPECT_TRUE(data_disjoint);
        }
    }
}

TEST(WorkloadsTest, SingleWorkloadHelper)
{
    WorkloadImages w = buildSingle("gzip");
    EXPECT_EQ(w.numThreads(), 1u);
    EXPECT_EQ(w.images[0]->profile.name, "gzip");
}

} // namespace
} // namespace smt
