#include "sim/experiment.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <thread>

#include "bpred/engine_registry.hh"
#include "sim/result_codec.hh"
#include "sim/scheduler.hh"
#include "sim/snapshot_cache.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace smt
{

std::string
ExperimentResult::policyDotString() const
{
    return csprintf("%u.%u", fetchThreads, fetchWidth);
}

namespace
{

/** Core rows sort by table position; engine rows after all of them. */
std::size_t
rank(const ParamSpec *spec)
{
    const auto &core = coreParamSpecs();
    std::size_t i = 0;
    while (i < core.size() && &core[i] != spec)
        ++i;
    return i;
}

/** A core row, else an engine parameter; nullptr when unknown. */
const ParamSpec *
findParam(const std::string &key)
{
    for (const ParamSpec &spec : coreParamSpecs())
        if (key == spec.key)
            return &spec;
    return EngineRegistry::instance().findParam(key);
}

std::string
unknownKeyError(const std::string &key)
{
    std::string known;
    for (const ParamSpec &spec : coreParamSpecs())
        known += std::string(spec.key) + ", ";
    return csprintf("unknown override \"%s\" (known: %sor any engine "
                    "parameter listed by smtsim --list-engines)",
                    key.c_str(), known.c_str());
}

} // namespace

void
RunOverrides::set(const ParamSpec &spec, std::uint64_t value)
{
    std::erase_if(entries,
                  [&](const Entry &e) { return e.first == &spec; });
    if (spec.rescales && value == 0)
        return;
    std::size_t r = rank(&spec);
    auto pos = std::find_if(entries.begin(), entries.end(),
                            [&](const Entry &e) {
                                return rank(e.first) > r;
                            });
    entries.insert(pos, {&spec, value});
}

void
RunOverrides::set(const std::string &key, std::uint64_t value)
{
    const ParamSpec *spec = findParam(key);
    if (spec == nullptr)
        fatal("%s", unknownKeyError(key).c_str());
    if (!spec->inRange(value))
        fatal("override %s value %llu out of range [%llu, %llu]",
              key.c_str(), (unsigned long long)value,
              (unsigned long long)spec->minValue,
              (unsigned long long)spec->maxValue);
    set(*spec, value);
}

bool
RunOverrides::setJson(const std::string &key, const JsonValue &value,
                      std::string &error)
{
    const ParamSpec *spec = findParam(key);
    if (spec == nullptr) {
        error = unknownKeyError(key);
        return false;
    }
    std::uint64_t n = 0;
    if (!spec->decode(value, n, error))
        return false;
    set(*spec, n);
    return true;
}

std::optional<std::uint64_t>
RunOverrides::get(const std::string &key) const
{
    for (const auto &[spec, value] : entries)
        if (key == spec->key)
            return value;
    return std::nullopt;
}

void
RunOverrides::apply(CoreParams &core) const
{
    for (bool last : {false, true})
        for (const auto &[spec, value] : entries)
            if (spec->rescales == last)
                spec->set(core, value);
}

std::string
RunOverrides::describe() const
{
    std::string s;
    for (const auto &[spec, value] : entries)
        s += (s.empty() ? "" : " ") + spec->describe(value);
    return s;
}

void
RunOverrides::writeJson(JsonWriter &jw) const
{
    for (const auto &[spec, value] : entries)
        spec->writeJson(jw, value);
}

unsigned
ExperimentRunner::workersFor(std::size_t points)
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::min<unsigned>(hw == 0 ? 4 : hw,
                              (unsigned)std::max<std::size_t>(points, 1));
}

SweepReport
ExperimentRunner::run(const SweepRequest &request) const
{
    // A reuse-enabled run gets a private cache scoped to this call;
    // snapshots still persist across calls through
    // request.checkpointDir's disk tier.
    std::optional<WarmupSnapshotCache> local;
    WarmupSnapshotCache *cache_ptr = nullptr;
    if (request.reuseEnabled())
        cache_ptr = &local.emplace();

    SweepScheduler scheduler(workersFor(request.points.size()), cache_ptr);
    return scheduler.wait(scheduler.submit(request));
}

void
ExperimentRunner::printFigure(std::ostream &os, const std::string &title,
                              const std::vector<ExperimentResult> &results,
                              bool fetch_throughput)
{
    // Group rows by (workload, policy string), columns by engine.
    struct Key
    {
        std::string workload;
        std::string policy;
        bool
        operator<(const Key &o) const
        {
            if (workload != o.workload)
                return workload < o.workload;
            return policy < o.policy;
        }
    };
    std::map<Key, std::map<EngineKind, double>> cells;
    std::vector<Key> row_order;
    // Columns: registry order, filtered to the engines present so a
    // paper-trio figure and a full-zoo ablation both render tight.
    std::vector<EngineKind> columns;
    for (const auto &r : results) {
        if (std::find(columns.begin(), columns.end(), r.engine) ==
            columns.end())
            columns.push_back(r.engine);
    }
    std::sort(columns.begin(), columns.end(),
              [](EngineKind a, EngineKind b) {
                  return static_cast<unsigned>(a) <
                         static_cast<unsigned>(b);
              });
    for (const auto &r : results) {
        // Non-default selection policies are spelled out so a grid
        // mixing ICOUNT and RR keeps distinct rows (ICOUNT stays
        // bare for the paper figures).
        std::string policy = r.policyDotString();
        if (r.policy != PolicyKind::ICount)
            policy = std::string(policyName(r.policy)) + "." + policy;
        std::string variant = r.overrides.describe();
        if (!variant.empty())
            policy += " " + variant;
        Key k{r.workload, policy};
        if (cells.find(k) == cells.end())
            row_order.push_back(k);
        cells[k][r.engine] =
            fetch_throughput ? r.ipfc : r.ipc;
    }

    std::vector<std::string> header{"workload", "policy"};
    for (EngineKind e : columns)
        header.push_back(engineName(e));
    TextTable table(header);
    for (const auto &k : row_order) {
        auto &row = cells[k];
        std::vector<std::string> cols{k.workload, k.policy};
        for (EngineKind e : columns) {
            auto it = row.find(e);
            cols.push_back(it == row.end()
                               ? std::string("-")
                               : TextTable::num(it->second));
        }
        table.addRow(cols);
    }
    table.print(os, title);
}

void
ExperimentRunner::writeJson(
    std::ostream &os, const std::string &bench,
    const std::vector<ExperimentResult> &results,
    const std::vector<std::pair<std::string, double>> &metrics,
    const SweepTiming *timing)
{
    JsonWriter jw(os, /*indent_step=*/2);
    jw.beginObject();
    jw.field("schema", "smtfetch-bench-v1");
    jw.field("bench", bench);
    if (timing != nullptr) {
        // Measured simulation throughput of this sweep (wall clock is
        // host-dependent by design; tools/check_bench.py validates
        // shape and finiteness, tools/compare_throughput.py reports
        // run-over-run deltas).
        double mcycles =
            static_cast<double>(timing->simulatedCycles) / 1e6;
        double minsts =
            static_cast<double>(timing->committedInsts) / 1e6;
        jw.key("throughput");
        jw.beginObject();
        jw.field("wallSeconds", timing->sweepSeconds);
        jw.field("measureSeconds", timing->measureSeconds);
        jw.field("simulatedCycles", timing->simulatedCycles);
        jw.field("committedInsts", timing->committedInsts);
        jw.field("mcyclesPerSecond",
                 timing->measureSeconds > 0.0
                     ? mcycles / timing->measureSeconds
                     : 0.0);
        jw.field("mips", timing->measureSeconds > 0.0
                             ? minsts / timing->measureSeconds
                             : 0.0);
        jw.field("cyclesSkipped", timing->cyclesSkipped);
        jw.field("sleepEvents", timing->sleepEvents);
        jw.field("maxSkipSpan", timing->maxSkipSpan);
        jw.endObject();
    }
    if (timing != nullptr && timing->reuseEnabled) {
        // Measured end-to-end accounting of the warmup-sharing fast
        // path. The baseline estimate prices every restored point at
        // this sweep's mean measured warmup cost; when every warmup
        // came from a persisted cache the estimate is conservative
        // (no warmup was measured, so the speedup reports 1).
        double avg_warmup =
            timing->warmupRuns > 0
                ? timing->warmupSeconds /
                      static_cast<double>(timing->warmupRuns)
                : 0.0;
        double baseline =
            timing->sweepSeconds +
            avg_warmup * static_cast<double>(timing->restoredRuns);
        jw.key("warmupReuse");
        jw.beginObject();
        jw.field("gridPoints",
                 static_cast<std::uint64_t>(timing->gridPoints));
        jw.field("warmupGroups",
                 static_cast<std::uint64_t>(timing->warmupGroups));
        jw.field("warmupRuns",
                 static_cast<std::uint64_t>(timing->warmupRuns));
        jw.field("restoredRuns",
                 static_cast<std::uint64_t>(timing->restoredRuns));
        jw.field("directRuns",
                 static_cast<std::uint64_t>(timing->directRuns));
        // Only resumed sweeps have journal-served
        // points; older records stay byte-identical.
        if (timing->journaledPoints > 0)
            jw.field("journaledPoints",
                     static_cast<std::uint64_t>(
                         timing->journaledPoints));
        jw.field("cacheHits", timing->cacheHits);
        jw.field("cacheDiskHits", timing->cacheDiskHits);
        jw.field("cacheEvictions", timing->cacheEvictions);
        jw.field("warmupSeconds", timing->warmupSeconds);
        jw.field("sweepSeconds", timing->sweepSeconds);
        jw.field("estimatedBaselineSeconds", baseline);
        jw.field("estimatedSpeedup",
                 timing->sweepSeconds > 0.0
                     ? baseline / timing->sweepSeconds
                     : 1.0);
        jw.endObject();
    }
    if (!metrics.empty()) {
        jw.key("metrics");
        jw.beginObject();
        for (const auto &[name, v] : metrics)
            jw.field(name, v);
        jw.endObject();
    }
    jw.key("results");
    jw.beginArray();
    for (const auto &r : results)
        writeResultJson(jw, r);
    jw.endArray();
    jw.endObject();
    os << '\n';
}

// allEngines()/paperEngines() are defined in bpred/engine_registry.cc
// next to the registry they enumerate.

} // namespace smt
