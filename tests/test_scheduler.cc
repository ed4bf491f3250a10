/**
 * @file
 * SweepScheduler tests: fair round-robin interleaving of concurrent
 * sweeps (observed through each job's submit-to-finish time), failure
 * propagation, warmup sharing
 * across jobs through one snapshot cache, and bit-identical results
 * regardless of worker count.
 */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/scheduler.hh"
#include "sim/snapshot_cache.hh"

using namespace smt;

namespace
{

/** A short n-point request over distinct fetch widths. */
SweepRequest
shortRequest(const std::string &workload, std::size_t n_points,
             Cycle warmup = 1'000, Cycle measure = 3'000)
{
    SweepRequest request;
    request.warmupCycles = warmup;
    request.measureCycles = measure;
    for (std::size_t i = 0; i < n_points; ++i)
        request.points.push_back(GridPoint{
            workload, EngineKind::GshareBtb, 1,
            unsigned(4 + 4 * i)});
    return request;
}

/**
 * A single expensive point that keeps the (sole) worker busy long
 * enough for the test body to stage the run queue behind it.
 */
SweepRequest
plugRequest()
{
    SweepRequest request;
    request.warmupCycles = 2'000;
    request.measureCycles = 150'000;
    request.points = {GridPoint{"2_MEM", EngineKind::GshareBtb, 1, 8}};
    return request;
}

} // namespace

// ---------------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------------

TEST(Scheduler, RoundRobinInterleavesConcurrentSweeps)
{
    // One worker makes the schedule deterministic. While the plug
    // point runs, a 4-point job A and a 2-point job B queue up; the
    // single-token round-robin then strictly alternates their points
    // (A1 B1 A2 B2 A3 A4), so the short job submitted SECOND finishes
    // first and spends less time from submit to finish than A. Under
    // whole-job FIFO, B would wait for all of A instead.
    SweepScheduler scheduler(1);
    auto plug = scheduler.submit(plugRequest(), "plug");
    auto a = scheduler.submit(shortRequest("2_MIX", 4), "long");
    auto b = scheduler.submit(shortRequest("gzip", 2), "short");

    scheduler.wait(plug);
    SweepReport ra = scheduler.wait(a);
    SweepReport rb = scheduler.wait(b);
    EXPECT_EQ(ra.results.size(), 4u);
    EXPECT_EQ(rb.results.size(), 2u);
    EXPECT_LT(rb.timing.sweepSeconds, ra.timing.sweepSeconds);
}

// ---------------------------------------------------------------------
// Lifecycle: empty, failed
// ---------------------------------------------------------------------

TEST(Scheduler, EmptyRequestCompletesImmediately)
{
    SweepScheduler scheduler(1);
    SweepRequest request;
    auto id = scheduler.submit(request, "empty");
    SweepReport report = scheduler.wait(id);
    EXPECT_TRUE(report.results.empty());
    EXPECT_EQ(report.timing.gridPoints, 0u);
}

TEST(Scheduler, FailingPointFailsTheJobAndWaitRethrows)
{
    SweepScheduler scheduler(2);
    SweepRequest request;
    request.warmupCycles = 1'000;
    request.measureCycles = 2'000;
    request.points = {GridPoint{"trace:/nonexistent/missing.trc",
                                EngineKind::GshareBtb, 1, 8}};
    auto id = scheduler.submit(request, "broken");
    try {
        scheduler.wait(id);
        FAIL() << "wait() on a failed sweep did not throw";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos)
            << e.what();
    }
    // A finished job's outcome is sticky: waiting again rethrows.
    EXPECT_THROW(scheduler.wait(id), std::exception);
}

TEST(Scheduler, DuplicateRecordPathsRejectedAtSubmit)
{
    SweepScheduler scheduler(1);
    SweepRequest request = shortRequest("gzip", 2);
    request.points[0].recordPath = ::testing::TempDir() + "sched_dup.trc";
    request.points[1].recordPath = request.points[0].recordPath;
    EXPECT_THROW(scheduler.submit(request), std::invalid_argument);
}

TEST(Scheduler, DerivedRecordPathCollisionsRejectedAtSubmit)
{
    // A multithreaded point records one file per thread ("X.t0.trc",
    // "X.t1.trc", ...). Collisions with those derived names must be
    // caught up front, before any worker opens a file.
    SweepScheduler scheduler(1);
    SweepRequest request = shortRequest("gzip", 2);
    request.points[0].workload = "2_MIX";
    request.points[0].recordPath =
        ::testing::TempDir() + "sched_mix.trc";
    request.points[1].recordPath =
        ::testing::TempDir() + "sched_mix.t1.trc";
    try {
        scheduler.submit(request);
        FAIL() << "derived record-path collision was not rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("sched_mix.t1.trc"),
                  std::string::npos)
            << e.what();
    }

    // Distinct bases derive distinct per-thread files and are fine.
    SweepRequest ok = shortRequest("gzip", 2);
    ok.points[0].workload = "2_MIX";
    ok.points[0].recordPath = ::testing::TempDir() + "sched_ok_a.trc";
    ok.points[1].workload = "4_MIX";
    ok.points[1].recordPath = ::testing::TempDir() + "sched_ok_b.trc";
    auto id = scheduler.submit(ok, "distinct");
    EXPECT_EQ(scheduler.wait(id).results.size(), 2u);
}

// ---------------------------------------------------------------------
// Cross-job warmup sharing
// ---------------------------------------------------------------------

TEST(Scheduler, SharedCacheWarmsAPopularConfigExactlyOnce)
{
    // Two jobs over the same single configuration share one cache:
    // whichever leads runs the warmup; the other restores. Across
    // both jobs the warmup simulation happens exactly once.
    WarmupSnapshotCache cache;
    SweepScheduler scheduler(2, &cache);

    SweepRequest request = shortRequest("gzip", 1, 2'000, 6'000);
    request.reuseWarmup = true;
    auto first = scheduler.submit(request, "first");
    auto second = scheduler.submit(request, "second");
    SweepReport r1 = scheduler.wait(first);
    SweepReport r2 = scheduler.wait(second);

    EXPECT_EQ(r1.timing.warmupRuns + r2.timing.warmupRuns, 1u);
    EXPECT_EQ(r1.timing.restoredRuns + r2.timing.restoredRuns, 1u);
    EXPECT_EQ(r1.timing.cacheHits + r2.timing.cacheHits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);

    // And sharing is invisible in the results.
    EXPECT_EQ(r1.results[0].ipfc, r2.results[0].ipfc);
    EXPECT_EQ(r1.results[0].ipc, r2.results[0].ipc);
    EXPECT_EQ(r1.results[0].statsJson, r2.results[0].statsJson);
}

// ---------------------------------------------------------------------
// Determinism across pool sizes
// ---------------------------------------------------------------------

TEST(Scheduler, ResultsAreBitIdenticalAcrossWorkerCounts)
{
    SweepRequest request = shortRequest("2_MIX", 4, 2'000, 6'000);

    SweepScheduler serial(1);
    SweepReport one = serial.wait(serial.submit(request));

    SweepScheduler parallel(4);
    SweepReport four = parallel.wait(parallel.submit(request));

    ASSERT_EQ(one.results.size(), four.results.size());
    for (std::size_t i = 0; i < one.results.size(); ++i) {
        EXPECT_EQ(one.results[i].ipfc, four.results[i].ipfc);
        EXPECT_EQ(one.results[i].ipc, four.results[i].ipc);
        EXPECT_EQ(one.results[i].statsJson, four.results[i].statsJson);
    }
}
