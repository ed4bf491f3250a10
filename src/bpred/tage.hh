/**
 * @file
 * TAGE conditional-branch direction predictor (Seznec/Michaud): a
 * bimodal base table plus a series of partially-tagged tables indexed
 * by geometrically-growing slices of global history. The longest
 * matching table provides the prediction; mispredictions allocate
 * into a longer table; per-entry "useful" counters arbitrate
 * replacement and decay periodically.
 *
 * This implementation is deliberately deterministic (allocation picks
 * the first longer table with a free entry rather than randomizing)
 * and caps the longest history at the shared 64-bit global-history
 * register so it can ride the engines' existing checkpoint and squash
 * repair machinery unchanged.
 *
 * TageFetchEngine ("tage") is the conventional line-oriented fetch
 * unit (LineFetchEngine) over TAGE instead of gshare — a new direction
 * predictor is one class plus one registry entry.
 */

#ifndef SMTFETCH_BPRED_TAGE_HH
#define SMTFETCH_BPRED_TAGE_HH

#include <cstdint>
#include <vector>

#include "bpred/fetch_engine.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;

/** TAGE direction predictor (sized by the tage* EngineParams). */
class TagePredictor
{
  public:
    explicit TagePredictor(const EngineParams &p);

    /** Predict the branch at pc under the given global history. */
    bool predict(Addr pc, std::uint64_t history) const;

    /**
     * Confidence probe (read-only): is the providing counter in one
     * of its two weak states?
     */
    bool weak(Addr pc, std::uint64_t history) const;

    /** Train with the actual outcome (commit time), recomputing the
     *  provider from the same (pc, history) the prediction used. */
    void update(Addr pc, std::uint64_t history, bool taken);

    void reset();

    unsigned numTables() const
    {
        return static_cast<unsigned>(tables.size());
    }

    /** History length feeding tagged table t. */
    unsigned historyLength(unsigned t) const { return histLengths[t]; }

    /** Storage budget in bits (for Table 3 accounting). */
    std::uint64_t storageBits() const;

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        SatCounter ctr;
        SatCounter useful;
    };

    /** Longest-match walk shared by predict/weak/update. */
    struct Lookup
    {
        int provider = -1; //!< tagged table index, -1 = bimodal
        std::uint64_t providerIdx = 0;
        bool providerPred = false;
        bool bimodalPred = false;

        bool
        pred() const
        {
            return provider >= 0 ? providerPred : bimodalPred;
        }
    };
    Lookup lookup(Addr pc, std::uint64_t history) const;

    std::uint64_t bimodalIndex(Addr pc) const;
    std::uint64_t tableIndex(unsigned t, Addr pc,
                             std::uint64_t history) const;
    std::uint16_t tableTag(unsigned t, Addr pc,
                           std::uint64_t history) const;

    std::vector<SatCounter> bimodal;
    std::vector<std::vector<TaggedEntry>> tables;
    std::vector<unsigned> histLengths;
    unsigned bimodalIndexBits;
    unsigned tableIndexBits;
    unsigned tagBits;
    unsigned ctrBits;
    unsigned usefulResetPeriod;
    std::uint64_t updates = 0; //!< drives the periodic useful decay
};

/** Line-oriented fetch unit: TAGE direction predictor over the BTB. */
using TageFetchEngine = LineFetchEngine<TagePredictor>;
extern template class LineFetchEngine<TagePredictor>;

} // namespace smt

#endif // SMTFETCH_BPRED_TAGE_HH
