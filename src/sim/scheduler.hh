/**
 * @file
 * The scheduler half of the ExperimentRunner split: SweepScheduler
 * owns a bounded worker pool and a round-robin run queue of submitted
 * sweeps. Each worker claims ONE grid point from the job at the front
 * of the queue, then sends the job to the back, so concurrent
 * sweeps make fair interleaved progress instead of queueing
 * whole-sweep FIFO. Points themselves run through a PointExecutor
 * (sim/executor.hh), which shares warmup snapshots through the
 * scheduler's WarmupSnapshotCache. A job may carry a SweepJournal:
 * every finished point is appended to it, and points a previous run
 * journaled are served from it without being simulated again.
 */

#ifndef SMTFETCH_SIM_SCHEDULER_HH
#define SMTFETCH_SIM_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/executor.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace smt
{

class WarmupSnapshotCache;

/**
 * Queues SweepRequests and runs their grid points across a bounded
 * worker pool. Thread-safe throughout; jobs (and their reports) live
 * until the scheduler is destroyed.
 */
class SweepScheduler
{
  public:
    using JobId = std::uint64_t;

    /**
     * @param workers pool size; 0 picks the host concurrency.
     * @param cache shared warmup-snapshot cache for reuse-enabled
     *        requests (null: every request runs the direct path).
     */
    explicit SweepScheduler(unsigned workers = 0,
                            WarmupSnapshotCache *cache = nullptr);
    ~SweepScheduler();

    SweepScheduler(const SweepScheduler &) = delete;
    SweepScheduler &operator=(const SweepScheduler &) = delete;

    /** Per-submit extras for resumable sweeps. */
    struct SubmitOptions
    {
        /** Journal every completed point here (resume support). */
        std::unique_ptr<SweepJournal> journal;

        /** Points already completed by a previous run: prefilled
         *  into the report, never claimed, never re-simulated. */
        std::vector<JournalEntry> precompleted;
    };

    /**
     * Queue a sweep. Validates the request up front (duplicate
     * record paths throw std::invalid_argument) and precomputes the
     * warmup grouping. Returns immediately. `name` is a caller-side
     * label only (callers tag jobs with their bench name).
     */
    JobId submit(const SweepRequest &request, std::string name = "",
                 SubmitOptions options = {});

    /**
     * Block until every point of the job finished or one failed.
     * Returns the report, or rethrows the failing point's exception.
     */
    SweepReport wait(JobId id);

  private:
    struct Job
    {
        std::vector<GridPoint> points;
        PointExecutor executor;
        bool reuseEnabled = false;

        std::unique_ptr<SweepJournal> journal;

        bool finished = false; //!< drained: report final or error set
        std::deque<std::size_t> pending; //!< unclaimed, grid order
        bool tokenQueued = false; //!< this job has a runQueue token
        std::size_t inFlight = 0; //!< points executing right now
        std::exception_ptr error;

        SweepReport report; //!< results grow in place, grid order
        std::uint64_t evictionsAtSubmit = 0;
        std::chrono::steady_clock::time_point submitTime;

        Job(const SweepRequest &request, WarmupSnapshotCache *cache,
            SubmitOptions options);
    };

    void workerLoop();

    /** Under `m`: mark a drained job finished and total its
     *  report. */
    void finalizeLocked(Job &job);

    std::mutex m;
    std::condition_variable cvWork; //!< run-queue pushes
    std::condition_variable cvDone; //!< jobs finishing
    std::map<JobId, std::unique_ptr<Job>> jobs;
    std::deque<JobId> runQueue; //!< ≤ 1 token per unfinished job
    JobId nextId = 1;
    bool stopping = false;

    WarmupSnapshotCache *cache;
    std::vector<std::thread> pool;
};

} // namespace smt

#endif // SMTFETCH_SIM_SCHEDULER_HH
