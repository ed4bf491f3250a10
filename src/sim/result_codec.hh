/**
 * @file
 * JSON codec for per-point results: the on-disk format of the
 * completed-point journal (sim/journal.hh) that `smtsim
 * --checkpoint-dir` resumes from and rebuilds its BENCH record from.
 * Round trips are lossless — `statsJson` travels as an escaped JSON
 * string member, and ipfc/ipc render through the same "%.17g" path as
 * the BENCH records, so a result that went through the codec still
 * produces byte-identical BENCH_*.json output.
 */

#ifndef SMTFETCH_SIM_RESULT_CODEC_HH
#define SMTFETCH_SIM_RESULT_CODEC_HH

#include <string>

#include "sim/executor.hh"
#include "sim/experiment.hh"

namespace smt
{

class JsonValue;
class JsonWriter;

/** Malformed codec input (bad journal line). */
class CodecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Emit one result as a BENCH-record `results[]` element. This is THE
 * rendering ExperimentRunner::writeJson uses, factored out so a
 * record rebuilt from a journal stays byte-compatible with the one
 * the runner writes.
 */
void writeResultJson(JsonWriter &jw, const ExperimentResult &r);

/** @name Journal-line codec (compact single-line JSON documents). */
/// @{
std::string resultToWireJson(const ExperimentResult &r);
ExperimentResult resultFromWireJson(const JsonValue &doc);

/** The outcome codec carries the result plus the served-by sideband
 *  (warmup/restored/direct, timings) the sweep accounting needs. */
std::string outcomeToWireJson(const PointOutcome &outcome);
PointOutcome outcomeFromWireJson(const JsonValue &doc);
/// @}

/**
 * Identity hash of a whole request — windows, seed, cycle-skip and
 * every expanded grid point in order. A resumable journal records it
 * so a resume against a different spec fails fast instead of merging
 * unrelated results.
 */
std::string sweepRequestKey(const SweepRequest &request);

} // namespace smt

#endif // SMTFETCH_SIM_RESULT_CODEC_HH
