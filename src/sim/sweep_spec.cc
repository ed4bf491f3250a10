#include "sim/sweep_spec.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "bpred/engine_registry.hh"
#include "util/logging.hh"
#include "workload/corpus.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"
#include "workload/workloads.hh"

namespace smt
{

namespace
{

std::string
lower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

[[noreturn]] void
specFail(const std::string &context, const std::string &what)
{
    throw SpecError(context + ": " + what);
}

/** Checked number-to-unsigned conversion with spec context. */
std::uint64_t
uintValue(const JsonValue &v, const std::string &context,
          const char *what)
{
    if (!v.isNumber())
        specFail(context, csprintf("%s must be a number, found %s",
                                   what, v.kindName()));
    try {
        return v.asUInt64();
    } catch (const JsonTypeError &) {
        specFail(context,
                 csprintf("%s must be a non-negative integer, "
                          "found %s",
                          what, v.dump().c_str()));
    }
}

const std::string &
stringValue(const JsonValue &v, const std::string &context,
            const char *what)
{
    if (!v.isString())
        specFail(context, csprintf("%s must be a string, found %s",
                                   what, v.kindName()));
    return v.asString();
}

/** A scalar spec value, or each element of an array value. */
std::vector<const JsonValue *>
scalarOrArray(const JsonValue &v)
{
    std::vector<const JsonValue *> out;
    if (v.isArray()) {
        for (const auto &e : v.asArray())
            out.push_back(&e);
    } else {
        out.push_back(&v);
    }
    return out;
}

std::string
knownWorkloadNames()
{
    std::string names;
    for (const auto &w : table2Workloads())
        names += (names.empty() ? "" : ", ") + w.name;
    for (const auto &p : allProfiles())
        names += ", " + p.name;
    return names;
}

/**
 * Check the N.X ranges the core accepts (CoreParams::validate), so
 * --validate rejects what a run would abort on.
 */
std::pair<unsigned, unsigned>
checkPolicyRange(std::uint64_t n, std::uint64_t x,
                 const std::string &context)
{
    if (n == 0 || n > maxThreads)
        specFail(context,
                 csprintf("policy threads %llu out of range [1, %u]",
                          (unsigned long long)n, maxThreads));
    if (x == 0 || x > 16)
        specFail(context,
                 csprintf("policy width %llu out of range [1, 16]",
                          (unsigned long long)x));
    return {static_cast<unsigned>(n), static_cast<unsigned>(x)};
}

/** Parse "N.X" (e.g. "2.8") or {"threads": N, "width": X}. */
std::pair<unsigned, unsigned>
parsePolicyPoint(const JsonValue &v, const std::string &context)
{
    if (v.isObject()) {
        const JsonValue *n = v.find("threads");
        const JsonValue *x = v.find("width");
        if (n == nullptr || x == nullptr || v.size() != 2)
            specFail(context, "a policy object must have exactly "
                              "the keys \"threads\" and \"width\"");
        return checkPolicyRange(
            uintValue(*n, context, "policy threads"),
            uintValue(*x, context, "policy width"), context);
    }
    const std::string &s = stringValue(v, context, "a policy");
    std::size_t dot = s.find('.');
    bool ok = dot != std::string::npos && dot > 0 &&
              dot + 1 < s.size();
    if (ok) {
        for (std::size_t i = 0; i < s.size(); ++i)
            if (i != dot && (s[i] < '0' || s[i] > '9'))
                ok = false;
    }
    if (!ok || s.size() > 6)
        specFail(context,
                 csprintf("bad policy \"%s\" (expected \"N.X\", "
                          "e.g. \"2.8\")",
                          s.c_str()));
    return checkPolicyRange(
        std::strtoull(s.substr(0, dot).c_str(), nullptr, 10),
        std::strtoull(s.substr(dot + 1).c_str(), nullptr, 10),
        context);
}

/**
 * Expand an overrides object into the cross product of its (possibly
 * array-valued) members, in key order.
 */
std::vector<RunOverrides>
parseOverrides(const JsonValue &obj, const std::string &context)
{
    if (!obj.isObject())
        specFail(context,
                 csprintf("\"overrides\" must be an object, found %s",
                          obj.kindName()));

    std::vector<RunOverrides> combos = {RunOverrides{}};
    for (const auto &[key, value] : obj.asObject()) {
        if (value.isArray() && value.size() == 0)
            specFail(context,
                     csprintf("override \"%s\" must not be an "
                              "empty array",
                              key.c_str()));
        std::vector<RunOverrides> next;
        for (const JsonValue *v : scalarOrArray(value)) {
            for (RunOverrides ov : combos) {
                std::string error;
                if (!ov.setJson(key, *v, error))
                    specFail(context, error);
                next.push_back(ov);
            }
        }
        combos = std::move(next);
    }
    return combos;
}

SweepBlock
parseSweepBlock(const JsonValue &v, const std::string &context)
{
    if (!v.isObject())
        specFail(context, csprintf("a sweep must be an object, "
                                   "found %s",
                                   v.kindName()));

    SweepBlock block;
    for (const auto &[key, value] : v.asObject()) {
        if (key == "workloads") {
            for (const JsonValue *w : scalarOrArray(value)) {
                std::string name;
                if (w->isObject() && w->find("corpus") != nullptr) {
                    // {"corpus": "manifest.json", "mix": [labels]}:
                    // resolve benchmark labels through a trace-corpus
                    // manifest into per-thread trace paths, verifying
                    // each trace's checksum and header up front.
                    const JsonValue *mix = w->find("mix");
                    if (mix == nullptr || w->size() != 2)
                        specFail(context,
                                 "a corpus workload object must "
                                 "have exactly the keys \"corpus\" "
                                 "(a manifest path) and \"mix\" (a "
                                 "benchmark label or an array of "
                                 "per-thread labels)");
                    const std::string &manifest_path = stringValue(
                        *w->find("corpus"), context,
                        "a corpus manifest path");
                    try {
                        CorpusManifest manifest =
                            loadCorpusManifest(manifest_path);
                        name = "trace:";
                        bool first = true;
                        for (const JsonValue *l :
                             scalarOrArray(*mix)) {
                            const std::string &label = stringValue(
                                *l, context, "a mix label");
                            const CorpusEntry &entry =
                                manifest.find(label);
                            validateCorpusEntry(manifest, entry);
                            name += (first ? "" : ",") +
                                    entry.resolvedPath;
                            first = false;
                        }
                        if (first)
                            specFail(context,
                                     "\"mix\" must name at least "
                                     "one benchmark label");
                    } catch (const CorpusError &e) {
                        specFail(context, e.what());
                    }
                } else if (w->isObject()) {
                    // {"trace": "path.trc"} or {"trace": [p0, p1]}:
                    // a file-backed replay workload, one thread per
                    // path.
                    const JsonValue *tr = w->find("trace");
                    if (tr == nullptr || w->size() != 1)
                        specFail(context,
                                 "a workload object must have "
                                 "exactly the key \"trace\" (a "
                                 "path or an array of per-thread "
                                 "paths) or the keys \"corpus\" "
                                 "and \"mix\"");
                    name = "trace:";
                    bool first = true;
                    for (const JsonValue *p : scalarOrArray(*tr)) {
                        const std::string &path = stringValue(
                            *p, context, "a trace path");
                        if (path.empty() ||
                            path.find(',') != std::string::npos)
                            specFail(context,
                                     csprintf("bad trace path "
                                              "\"%s\" (must be "
                                              "non-empty, without "
                                              "commas)",
                                              path.c_str()));
                        name += (first ? "" : ",") + path;
                        first = false;
                    }
                    if (first)
                        specFail(context,
                                 "\"trace\" must name at least one "
                                 "path");
                } else {
                    name = stringValue(*w, context, "a workload");
                }
                validateWorkloadName(name);
                block.workloads.push_back(name);
            }
        } else if (key == "engines") {
            for (const JsonValue *e : scalarOrArray(value)) {
                const std::string &name =
                    stringValue(*e, context, "an engine");
                if (lower(name) == "all") {
                    // Every registered engine, zoo included.
                    for (EngineKind k : allEngines())
                        block.engines.push_back(k);
                } else if (lower(name) == "paper") {
                    for (EngineKind k : paperEngines())
                        block.engines.push_back(k);
                } else {
                    block.engines.push_back(
                        engineKindFromString(name));
                }
            }
        } else if (key == "policies") {
            for (const JsonValue *p : scalarOrArray(value))
                block.policies.push_back(
                    parsePolicyPoint(*p, context));
        } else if (key == "selection") {
            block.selections.clear();
            for (const JsonValue *s : scalarOrArray(value))
                block.selections.push_back(policyKindFromString(
                    stringValue(*s, context, "a selection policy")));
        } else if (key == "overrides") {
            block.overrides = parseOverrides(value, context);
        } else {
            specFail(context,
                     csprintf("unknown sweep key \"%s\" (known: "
                              "workloads, engines, policies, "
                              "selection, overrides)",
                              key.c_str()));
        }
    }

    if (block.workloads.empty())
        specFail(context, "a sweep needs at least one workload");
    if (block.policies.empty())
        specFail(context, "a sweep needs at least one policy");
    if (block.selections.empty())
        specFail(context, "\"selection\" must not be an empty array");
    if (block.engines.empty()) {
        if (v.find("engines") != nullptr)
            specFail(context,
                     "\"engines\" must not be an empty array");
        // Default stays the paper trio (pre-zoo specs keep their
        // meaning); "all" opts into every registered engine.
        block.engines.assign(paperEngines().begin(),
                             paperEngines().end());
    }

    // The fetch buffer must cover the block's widest fetch policy
    // (CoreParams::validate), so --validate catches it up front.
    unsigned max_width = 0;
    for (auto [n, x] : block.policies)
        max_width = std::max(max_width, x);
    for (const auto &ov : block.overrides)
        for (const auto &[spec, value] : ov.entries)
            if (spec->coversFetchWidth && value < max_width)
                specFail(context,
                         csprintf("%s %llu is smaller than the widest "
                                  "fetch policy (%u)",
                                  spec->key, (unsigned long long)value,
                                  max_width));
    return block;
}

} // namespace

EngineKind
engineKindFromString(const std::string &name)
{
    const EngineDescriptor *d = EngineRegistry::instance().find(name);
    if (d == nullptr)
        throw SpecError(
            csprintf("unknown fetch engine \"%s\" (known: %s, "
                     "paper, all)",
                     name.c_str(),
                     EngineRegistry::instance().knownNames().c_str()));
    return d->kind;
}

PolicyKind
policyKindFromString(const std::string &name)
{
    std::string n = lower(name);
    if (n == "icount")
        return PolicyKind::ICount;
    if (n == "rr" || n == "round-robin" || n == "roundrobin")
        return PolicyKind::RoundRobin;
    throw SpecError(csprintf("unknown selection policy \"%s\" "
                             "(known: icount, round-robin)",
                             name.c_str()));
}

LongLoadPolicy
longLoadPolicyFromString(const std::string &name)
{
    std::string n = lower(name);
    if (n == "none")
        return LongLoadPolicy::None;
    if (n == "stall")
        return LongLoadPolicy::Stall;
    if (n == "flush")
        return LongLoadPolicy::Flush;
    throw SpecError(csprintf("unknown long-load policy \"%s\" "
                             "(known: none, stall, flush)",
                             name.c_str()));
}

std::string
defaultConfigDir()
{
    const char *env = std::getenv("SMTFETCH_CONFIG_DIR");
    if (env != nullptr && env[0] != '\0')
        return env;
#ifdef SMTFETCH_CONFIG_DIR
    return SMTFETCH_CONFIG_DIR;
#else
    return "configs";
#endif
}

void
validateWorkloadName(const std::string &name)
{
    for (const auto &w : table2Workloads())
        if (w.name == name)
            return;
    for (const auto &p : allProfiles())
        if (p.name == name)
            return;
    if (isTraceWorkloadName(name)) {
        // Syntax-only here: the files themselves are opened at run
        // time, so a spec can be validated before its traces are
        // recorded.
        std::string paths = name.substr(6);
        if (paths.empty() || paths.front() == ',' ||
            paths.back() == ',' ||
            paths.find(",,") != std::string::npos)
            throw SpecError(csprintf(
                "bad trace workload \"%s\" (expected "
                "\"trace:<path>[,<path>...]\" with non-empty "
                "paths)",
                name.c_str()));
        return;
    }
    throw SpecError(csprintf("unknown workload \"%s\" (known: %s, "
                             "or \"trace:<path>[,<path>...]\")",
                             name.c_str(),
                             knownWorkloadNames().c_str()));
}

std::vector<GridPoint>
SweepSpec::expand() const
{
    std::vector<GridPoint> points;
    for (const auto &block : sweeps)
        for (const auto &w : block.workloads)
            for (EngineKind e : block.engines)
                for (auto [n, x] : block.policies)
                    for (PolicyKind sel : block.selections)
                        for (const auto &ov : block.overrides)
                            points.push_back({w, e, n, x, sel, ov});
    return points;
}

SweepRequest
SweepSpec::makeRequest() const
{
    SweepRequest request;
    request.points = expand();
    request.warmupCycles = warmupCycles;
    request.measureCycles = measureCycles;
    request.seed = seed;
    request.cycleSkip = cycleSkip;
    request.reuseWarmup = checkpointAfterWarmup;
    request.checkpointDir = checkpointDir;
    return request;
}

SweepSpec
SweepSpec::fromJson(const JsonValue &doc, const std::string &context)
{
    if (!doc.isObject())
        specFail(context,
                 csprintf("a spec must be a JSON object, found %s",
                          doc.kindName()));

    SweepSpec spec;
    const JsonValue *sweeps = nullptr;
    JsonValue::Object inline_sweep;

    for (const auto &[key, value] : doc.asObject()) {
        if (key == "name") {
            spec.name = stringValue(value, context, "\"name\"");
        } else if (key == "type") {
            const std::string &t =
                stringValue(value, context, "\"type\"");
            if (lower(t) == "grid")
                spec.type = SpecType::Grid;
            else if (lower(t) == "characteristics")
                spec.type = SpecType::Characteristics;
            else
                specFail(context,
                         csprintf("unknown spec type \"%s\" (known: "
                                  "grid, characteristics)",
                                  t.c_str()));
        } else if (key == "warmupCycles") {
            spec.warmupCycles =
                uintValue(value, context, "warmupCycles");
        } else if (key == "measureCycles") {
            spec.measureCycles =
                uintValue(value, context, "measureCycles");
        } else if (key == "seed") {
            spec.seed = uintValue(value, context, "seed");
        } else if (key == "output") {
            spec.output = stringValue(value, context, "\"output\"");
        } else if (key == "checkpointAfterWarmup") {
            if (!value.isBool())
                specFail(context,
                         csprintf("checkpointAfterWarmup must be a "
                                  "boolean, found %s",
                                  value.kindName()));
            spec.checkpointAfterWarmup = value.asBool();
        } else if (key == "cycleSkip") {
            if (!value.isBool())
                specFail(context,
                         csprintf("cycleSkip must be a boolean, "
                                  "found %s",
                                  value.kindName()));
            spec.cycleSkip = value.asBool();
        } else if (key == "checkpointDir") {
            spec.checkpointDir =
                stringValue(value, context, "\"checkpointDir\"");
            if (spec.checkpointDir.empty())
                specFail(context,
                         "checkpointDir must not be empty (omit the "
                         "key to keep snapshots in memory)");
        } else if (key == "instructions") {
            spec.instructions =
                uintValue(value, context, "instructions");
        } else if (key == "sweeps") {
            sweeps = &value;
        } else if (key == "workloads" || key == "engines" ||
                   key == "policies" || key == "selection" ||
                   key == "overrides") {
            inline_sweep.emplace_back(key, value);
        } else {
            specFail(context,
                     csprintf("unknown spec key \"%s\" (known: "
                              "name, type, warmupCycles, "
                              "measureCycles, seed, output, "
                              "checkpointAfterWarmup, checkpointDir, "
                              "cycleSkip, instructions, "
                              "sweeps, workloads, engines, policies, "
                              "selection, overrides)",
                              key.c_str()));
        }
    }

    if (spec.name.empty())
        specFail(context, "a spec needs a non-empty \"name\"");
    if (spec.measureCycles == 0)
        specFail(context, "measureCycles must be positive");

    if (sweeps != nullptr && !inline_sweep.empty())
        specFail(context, "give either top-level "
                          "workloads/engines/policies or a "
                          "\"sweeps\" array, not both");

    if (sweeps != nullptr) {
        if (!sweeps->isArray() || sweeps->size() == 0)
            specFail(context, "\"sweeps\" must be a non-empty array "
                              "of sweep objects");
        for (const auto &s : sweeps->asArray())
            spec.sweeps.push_back(parseSweepBlock(s, context));
    } else if (!inline_sweep.empty()) {
        spec.sweeps.push_back(parseSweepBlock(
            JsonValue(std::move(inline_sweep)), context));
    }

    if (spec.type == SpecType::Grid && spec.sweeps.empty())
        specFail(context, "a grid spec needs workloads/policies "
                          "(top-level or in \"sweeps\")");
    if (spec.type == SpecType::Characteristics &&
        !spec.sweeps.empty())
        specFail(context,
                 "a characteristics spec takes no sweeps");
    if (spec.type == SpecType::Characteristics &&
        spec.instructions == 0)
        specFail(context, "instructions must be positive");

    return spec;
}

SweepSpec
SweepSpec::fromString(const std::string &text,
                      const std::string &context)
{
    try {
        return fromJson(jsonParse(text), context);
    } catch (const JsonParseError &e) {
        throw SpecError(context + ": " + e.what());
    }
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SpecError(csprintf("cannot open spec file %s",
                                 path.c_str()));
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return fromString(text, path);
}

SweepReport
runSpec(const SweepSpec &spec)
{
    if (spec.type != SpecType::Grid)
        throw SpecError(csprintf("spec \"%s\" is not a grid spec",
                                 spec.name.c_str()));
    return ExperimentRunner().run(spec.makeRequest());
}

std::vector<BenchmarkCharacteristics>
runCharacteristics(std::uint64_t instructions)
{
    std::vector<BenchmarkCharacteristics> rows;
    for (const auto &prof : allProfiles()) {
        auto img = buildImage(prof, 0x400000, 0x40000000);
        SyntheticTraceStream ts(img);
        for (std::uint64_t i = 0; i < instructions; ++i)
            ts.next();
        const auto &s = ts.stats();

        BenchmarkCharacteristics row;
        row.benchmark = prof.name;
        row.ilp = prof.benchClass == BenchClass::ILP;
        row.paperBlockSize = prof.avgBlockSize;
        row.blockSize = s.avgBlockSize();
        row.streamLength = s.avgStreamLength();
        row.takenRate =
            s.ctis ? double(s.takenCtis) / double(s.ctis) : 0;
        row.loadFraction = double(s.loads) / double(s.insts);
        rows.push_back(row);
    }
    return rows;
}

std::vector<std::pair<std::string, double>>
characteristicsMetrics(const std::vector<BenchmarkCharacteristics> &rows)
{
    std::vector<std::pair<std::string, double>> metrics;
    for (const auto &r : rows) {
        metrics.emplace_back(r.benchmark + ".bbSize", r.blockSize);
        metrics.emplace_back(r.benchmark + ".streamLen",
                             r.streamLength);
        metrics.emplace_back(r.benchmark + ".takenRate",
                             r.takenRate);
        metrics.emplace_back(r.benchmark + ".loadFrac",
                             r.loadFraction);
    }
    return metrics;
}

std::string
benchRecordDir(const std::string &dir_override)
{
    if (!dir_override.empty())
        return dir_override;
    const char *env = std::getenv("SMTFETCH_JSON_DIR");
    return env != nullptr && env[0] != '\0' ? env : ".";
}

void
ensureWritableDir(const std::string &dir)
{
    std::string probe =
        dir + "/.smtfetch_write_probe_" + std::to_string(
#ifdef _WIN32
                                              0
#else
                                              ::getpid()
#endif
        );
    {
        std::ofstream os(probe);
        if (!os || !(os << "probe"))
            throw SpecError(csprintf(
                "output directory \"%s\" is not writable (cannot "
                "create files in it) — create the directory or "
                "pass a writable one",
                dir.c_str()));
    }
    std::remove(probe.c_str());
}

bool
writeBenchRecord(
    const std::string &bench,
    const std::vector<ExperimentResult> &results,
    const std::vector<std::pair<std::string, double>> &metrics,
    const std::string &dir_override,
    const SweepTiming *timing)
{
    const char *off = std::getenv("SMTFETCH_NO_JSON");
    if (off != nullptr && off[0] != '\0' && off[0] != '0')
        return true;

    std::string path =
        benchRecordDir(dir_override) + "/BENCH_" + bench + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return false;
    }
    ExperimentRunner::writeJson(os, bench, results, metrics, timing);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace smt
