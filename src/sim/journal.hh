/**
 * @file
 * The completed-point journal behind resumable sweeps (`smtsim
 * --checkpoint-dir`): one JSONL file per bench in the sweep's
 * checkpointDir. Line 1 is a header binding the journal to a specific
 * request (sweepRequestKey over the expanded grid); every later line
 * records one completed grid point's outcome through the result
 * codec. A run killed mid-sweep reopens the journal, skips every
 * journaled point and serves the rest from the persisted warmup
 * snapshots — zero recomputed points, zero re-simulated warmups.
 */

#ifndef SMTFETCH_SIM_JOURNAL_HH
#define SMTFETCH_SIM_JOURNAL_HH

#include <cstddef>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/executor.hh"

namespace smt
{

/** User-facing journal problem: unreadable file, header mismatch. */
class JournalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One journaled completion: a grid index plus what the run did. */
struct JournalEntry
{
    std::size_t index = 0;
    PointOutcome outcome;
};

/**
 * Open-or-create journal for one (bench, request) pair. Loading
 * tolerates a torn final line (the run was killed mid-append)
 * by truncating to the last complete entry; any other corruption or a
 * header naming a different request/grid throws JournalError with the
 * fix spelled out. append() is thread-safe and flushes per line so a
 * SIGKILL never loses more than the entry being written.
 */
class SweepJournal
{
  public:
    /**
     * @param fresh discard any existing journal instead of resuming
     *        from it (the --fresh flag).
     */
    SweepJournal(std::string path, std::string bench,
                 std::string request_key, std::size_t points,
                 std::size_t warmup_groups, bool fresh);

    /** Entries recovered from disk, one per already-done point
     *  (deduplicated, ascending index order). */
    const std::vector<JournalEntry> &completed() const
    {
        return entries;
    }

    void append(std::size_t index, const PointOutcome &outcome);

    /** "journal_<bench>.jsonl" inside the checkpoint directory. */
    static std::string pathFor(const std::string &dir,
                               const std::string &bench);

  private:
    void load(std::size_t points, bool fresh);
    void rewrite();

    std::mutex m;
    std::string path;
    std::string bench;
    std::string requestKey;
    std::size_t points;
    std::size_t warmupGroups;
    std::vector<JournalEntry> entries;
    std::ofstream os;
};

/**
 * Run a reuse-enabled request in-process and journal it in its
 * checkpointDir (which must be set): every finished point is appended
 * to pathFor(checkpointDir, bench), and a re-run of the same request
 * serves the journaled points without simulating them and runs only
 * the rest, restoring warmups from the snapshots persisted in the same
 * directory. `fresh` discards the journal first. The report counts
 * journal-served points in timing.journaledPoints.
 */
SweepReport runJournaled(const SweepRequest &request,
                         const std::string &bench, bool fresh);

} // namespace smt

#endif // SMTFETCH_SIM_JOURNAL_HH
