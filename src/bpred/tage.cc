#include "bpred/tage.hh"

#include <bit>
#include <cmath>

#include "bpred/engine_registry.hh"
#include "sim/checkpoint.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace smt
{

namespace
{

/** XOR-fold the low `len` bits of `h` down to `bits` bits. */
std::uint64_t
fold(std::uint64_t h, unsigned len, unsigned bits)
{
    if (bits == 0)
        return 0;
    h &= mask(len);
    std::uint64_t f = 0;
    while (h != 0) {
        f ^= h & mask(bits);
        h >>= bits;
    }
    return f;
}

} // namespace

TagePredictor::TagePredictor(const EngineParams &p)
    : tagBits(p.tageTagBits), ctrBits(p.tageCounterBits),
      usefulResetPeriod(p.tageUsefulResetPeriod)
{
    if (p.tageBimodalEntries == 0 ||
        (p.tageBimodalEntries & (p.tageBimodalEntries - 1)) != 0)
        fatal("tage bimodal entries must be a power of two");
    if (p.tageEntriesPerTable == 0 ||
        (p.tageEntriesPerTable & (p.tageEntriesPerTable - 1)) != 0)
        fatal("tage entries per table must be a power of two");
    if (p.tageTables == 0)
        fatal("tage needs at least one tagged table");
    if (p.tageTagBits == 0 || p.tageTagBits > 16)
        fatal("tage tag bits must be in [1, 16]");
    if (p.tageCounterBits == 0 || p.tageCounterBits > 8)
        fatal("tage counter bits must be in [1, 8]");
    if (p.tageMinHistory == 0 || p.tageMaxHistory > 64 ||
        p.tageMinHistory > p.tageMaxHistory)
        fatal("tage history lengths must satisfy "
              "1 <= min <= max <= 64");
    if (usefulResetPeriod == 0)
        fatal("tage useful-reset period must be nonzero");

    bimodalIndexBits = std::bit_width(p.tageBimodalEntries) - 1;
    tableIndexBits = std::bit_width(p.tageEntriesPerTable) - 1;

    bimodal.assign(p.tageBimodalEntries,
                   SatCounter(2, 1)); // weakly not-taken

    // Geometric history series min..max (strictly increasing; the
    // shared 64-bit global history register bounds every length).
    histLengths.resize(p.tageTables);
    const double ratio =
        p.tageTables > 1
            ? std::pow(static_cast<double>(p.tageMaxHistory) /
                           p.tageMinHistory,
                       1.0 / (p.tageTables - 1))
            : 1.0;
    double len = p.tageMinHistory;
    for (unsigned t = 0; t < p.tageTables; ++t) {
        unsigned l = static_cast<unsigned>(std::lround(len));
        if (t > 0 && l <= histLengths[t - 1])
            l = histLengths[t - 1] + 1;
        histLengths[t] = std::min(l, 64u);
        len *= ratio;
    }

    TaggedEntry init;
    init.ctr = SatCounter(ctrBits,
                          static_cast<unsigned>(mask(ctrBits)) >> 1);
    init.useful = SatCounter(2, 0);
    tables.assign(p.tageTables,
                  std::vector<TaggedEntry>(p.tageEntriesPerTable,
                                           init));
}

std::uint64_t
TagePredictor::bimodalIndex(Addr pc) const
{
    return (pc >> 2) & mask(bimodalIndexBits);
}

std::uint64_t
TagePredictor::tableIndex(unsigned t, Addr pc,
                          std::uint64_t history) const
{
    std::uint64_t h = fold(history, histLengths[t], tableIndexBits);
    return (h ^ (pc >> 2) ^ (pc >> (2 + t + 1))) &
           mask(tableIndexBits);
}

std::uint16_t
TagePredictor::tableTag(unsigned t, Addr pc,
                        std::uint64_t history) const
{
    std::uint64_t h1 = fold(history, histLengths[t], tagBits);
    std::uint64_t h2 = fold(history, histLengths[t], tagBits - 1);
    return static_cast<std::uint16_t>(((pc >> 2) ^ h1 ^ (h2 << 1)) &
                                      mask(tagBits));
}

TagePredictor::Lookup
TagePredictor::lookup(Addr pc, std::uint64_t history) const
{
    Lookup l;
    l.bimodalPred = bimodal[bimodalIndex(pc)].predictTaken();
    for (int t = static_cast<int>(tables.size()) - 1; t >= 0; --t) {
        std::uint64_t idx = tableIndex(t, pc, history);
        if (tables[t][idx].tag == tableTag(t, pc, history)) {
            l.provider = t;
            l.providerIdx = idx;
            l.providerPred = tables[t][idx].ctr.predictTaken();
            break;
        }
    }
    return l;
}

bool
TagePredictor::predict(Addr pc, std::uint64_t history) const
{
    return lookup(pc, history).pred();
}

bool
TagePredictor::weak(Addr pc, std::uint64_t history) const
{
    Lookup l = lookup(pc, history);
    const SatCounter &c =
        l.provider >= 0 ? tables[l.provider][l.providerIdx].ctr
                        : bimodal[bimodalIndex(pc)];
    unsigned v = c.raw();
    unsigned mid = c.max() >> 1;
    return v == mid || v == mid + 1;
}

void
TagePredictor::update(Addr pc, std::uint64_t history, bool taken)
{
    // Recompute the match set from the history the prediction used
    // (the front end hands us pred_ghist at commit).
    int provider = -1;
    int alt = -1;
    std::uint64_t providerIdx = 0;
    std::uint64_t altIdx = 0;
    for (int t = static_cast<int>(tables.size()) - 1; t >= 0; --t) {
        std::uint64_t idx = tableIndex(t, pc, history);
        if (tables[t][idx].tag == tableTag(t, pc, history)) {
            if (provider < 0) {
                provider = t;
                providerIdx = idx;
            } else {
                alt = t;
                altIdx = idx;
                break;
            }
        }
    }

    std::uint64_t bidx = bimodalIndex(pc);
    bool altPred = alt >= 0 ? tables[alt][altIdx].ctr.predictTaken()
                            : bimodal[bidx].predictTaken();
    bool pred;
    if (provider >= 0) {
        TaggedEntry &e = tables[provider][providerIdx];
        pred = e.ctr.predictTaken();
        // The useful bit tracks when the provider beat its
        // alternative — only distinguishing predictions count.
        if (pred != altPred)
            e.useful.update(pred == taken);
        e.ctr.update(taken);
    } else {
        pred = bimodal[bidx].predictTaken();
        bimodal[bidx].update(taken);
    }

    // Mispredictions allocate into a longer table. Deterministic
    // policy: first longer table with a dead (useful == 0) entry; if
    // none, age all longer candidates instead.
    if (pred != taken &&
        provider < static_cast<int>(tables.size()) - 1) {
        bool allocated = false;
        for (unsigned t = provider + 1; t < tables.size(); ++t) {
            std::uint64_t idx = tableIndex(t, pc, history);
            TaggedEntry &e = tables[t][idx];
            if (e.useful.raw() == 0) {
                e.tag = tableTag(t, pc, history);
                unsigned weakVal =
                    static_cast<unsigned>(mask(ctrBits)) >> 1;
                e.ctr =
                    SatCounter(ctrBits, taken ? weakVal + 1 : weakVal);
                e.useful = SatCounter(2, 0);
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            for (unsigned t = provider + 1; t < tables.size(); ++t)
                tables[t][tableIndex(t, pc, history)]
                    .useful.decrement();
        }
    }

    // Periodic graceful decay of the useful counters so stale entries
    // eventually become allocatable again.
    if (++updates % usefulResetPeriod == 0) {
        for (auto &tbl : tables)
            for (TaggedEntry &e : tbl)
                e.useful.setRaw(e.useful.raw() >> 1);
    }
}

void
TagePredictor::reset()
{
    for (SatCounter &c : bimodal)
        c = SatCounter(2, 1);
    TaggedEntry init;
    init.ctr = SatCounter(ctrBits,
                          static_cast<unsigned>(mask(ctrBits)) >> 1);
    init.useful = SatCounter(2, 0);
    for (auto &tbl : tables)
        for (TaggedEntry &e : tbl)
            e = init;
    updates = 0;
}

std::uint64_t
TagePredictor::storageBits() const
{
    std::uint64_t bits = bimodal.size() * 2;
    for (const auto &tbl : tables)
        bits += tbl.size() * (tagBits + ctrBits + 2);
    return bits;
}

void
TagePredictor::save(CheckpointWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(bimodal.size()));
    for (const SatCounter &c : bimodal)
        w.u8(c.raw());
    w.u32(static_cast<std::uint32_t>(tables.size()));
    w.u32(static_cast<std::uint32_t>(tables[0].size()));
    for (const auto &tbl : tables)
        for (const TaggedEntry &e : tbl) {
            w.u16(e.tag);
            w.u8(e.ctr.raw());
            w.u8(e.useful.raw());
        }
    w.u64(updates);
}

void
TagePredictor::restore(CheckpointReader &r)
{
    std::uint32_t nb = r.u32();
    if (nb != bimodal.size())
        r.fail(csprintf("tage bimodal table holds %u counters but "
                        "this configuration uses %zu (configuration "
                        "mismatch)",
                        nb, bimodal.size()));
    for (SatCounter &c : bimodal) {
        std::uint8_t v = r.u8();
        if (v > c.max())
            r.fail(csprintf("tage bimodal counter byte holds %u, "
                            "max is %u (corrupt payload)",
                            v, c.max()));
        c.setRaw(v);
    }
    std::uint32_t nt = r.u32();
    std::uint32_t ne = r.u32();
    if (nt != tables.size() || ne != tables[0].size())
        r.fail(csprintf("tage tagged tables are %ux%u but this "
                        "configuration uses %zux%zu (configuration "
                        "mismatch)",
                        nt, ne, tables.size(), tables[0].size()));
    for (auto &tbl : tables)
        for (TaggedEntry &e : tbl) {
            std::uint16_t tag = r.u16();
            if (tag > mask(tagBits))
                r.fail(csprintf("tage tag holds %u, max is %llu "
                                "(corrupt payload)",
                                tag,
                                static_cast<unsigned long long>(
                                    mask(tagBits))));
            e.tag = tag;
            std::uint8_t cv = r.u8();
            if (cv > e.ctr.max())
                r.fail(csprintf("tage counter byte holds %u, max is "
                                "%u (corrupt payload)",
                                cv, e.ctr.max()));
            e.ctr.setRaw(cv);
            std::uint8_t uv = r.u8();
            if (uv > e.useful.max())
                r.fail(csprintf("tage useful byte holds %u, max is "
                                "%u (corrupt payload)",
                                uv, e.useful.max()));
            e.useful.setRaw(uv);
        }
    updates = r.u64();
}

// ---------------------------------------------------------------------
// Registry binding
// ---------------------------------------------------------------------

void
registerTageEngine(EngineRegistry &reg)
{
    using PSpec = ParamSpec;
    EngineDescriptor d;
    d.kind = EngineKind::Tage;
    d.name = "tage";
    d.description = "line-oriented fetch unit: TAGE direction "
                    "predictor (bimodal base + tagged geometric-"
                    "history tables) + BTB";
    d.checkpointTag = "engine.tage";
    d.factory = [](const EngineParams &p) {
        return std::unique_ptr<FetchEngine>(
            std::make_unique<TageFetchEngine>(p, EngineKind::Tage));
    };
    d.params = {
        PSpec::uintSpec("tageBimodalEntries",
                        "TAGE bimodal base entries",
                        &EngineParams::tageBimodalEntries, 1, 1u << 26),
        PSpec::uintSpec("tageTables", "TAGE tagged tables",
                        &EngineParams::tageTables, 1, 16),
        PSpec::uintSpec("tageEntriesPerTable",
                        "TAGE entries per tagged table",
                        &EngineParams::tageEntriesPerTable, 1,
                        1u << 24),
        PSpec::uintSpec("tageTagBits", "TAGE tag bits",
                        &EngineParams::tageTagBits, 1, 16),
        PSpec::uintSpec("tageCounterBits", "TAGE counter bits",
                        &EngineParams::tageCounterBits, 1, 8),
        PSpec::uintSpec("tageMinHistory",
                        "shortest tagged-table history",
                        &EngineParams::tageMinHistory, 1, 64),
        PSpec::uintSpec("tageMaxHistory",
                        "longest tagged-table history",
                        &EngineParams::tageMaxHistory, 1, 64),
        PSpec::uintSpec("tageUsefulResetPeriod",
                        "updates between useful-counter decays",
                        &EngineParams::tageUsefulResetPeriod, 1,
                        1u << 30),
        PSpec::uintSpec("btbEntries", "BTB entries",
                        &EngineParams::btbEntries, 1, 1u << 24),
        PSpec::uintSpec("btbWays", "BTB associativity",
                        &EngineParams::btbWays, 1, 64),
        PSpec::uintSpec("btbScanCap",
                        "predecode CTI scan cap (insts)",
                        &EngineParams::btbScanCap, 1, 256),
        PSpec::uintSpec("rasEntries", "return-address-stack entries",
                        &EngineParams::rasEntries, 1, 4096),
        PSpec::uintSpec("missBlockInsts",
                        "sequential fallback block length",
                        &EngineParams::missBlockInsts, 1, 256),
    };
    reg.add(std::move(d));
}

} // namespace smt
