#include "core/param_spec.hh"

#include <algorithm>
#include <cctype>

#include "core/params.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace smt
{

namespace
{

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return s;
}

/** Bind a row to a CoreParams member. */
template <typename T>
ParamSpec
bind(ParamSpec s, T CoreParams::*field)
{
    s.get = [field](const CoreParams &c) {
        return static_cast<std::uint64_t>(c.*field);
    };
    s.set = [field](CoreParams &c, std::uint64_t v) {
        c.*field = static_cast<T>(v);
    };
    return s;
}

/** Bind a row to an EngineParams member (bools read as 0/1). */
template <typename T>
ParamSpec
bind(ParamSpec s, T EngineParams::*field)
{
    s.get = [field](const CoreParams &c) {
        return static_cast<std::uint64_t>(c.engineParams.*field);
    };
    s.set = [field](CoreParams &c, std::uint64_t v) {
        c.engineParams.*field = static_cast<T>(v);
    };
    return s;
}

constexpr std::uint64_t maxU32 = 0xffffffffull;

} // namespace

bool
ParamSpec::decode(const JsonValue &v, std::uint64_t &out,
                  std::string &error) const
{
    if (type == Type::Enum) {
        if (!v.isString()) {
            error = csprintf("%s must be a string, found %s", key,
                             v.kindName());
            return false;
        }
        std::string known;
        for (std::size_t i = 0; i < enumNames.size(); ++i) {
            if (lower(v.asString()) == enumNames[i]) {
                out = i;
                return true;
            }
            known += (i ? ", " : "") + std::string(enumNames[i]);
        }
        error = csprintf("unknown %s \"%s\" (known: %s)", key,
                         v.asString().c_str(), known.c_str());
        return false;
    }
    if (!v.isNumber()) {
        error = csprintf("%s must be a number, found %s", key,
                         v.kindName());
        return false;
    }
    try {
        out = v.asUInt64();
    } catch (const JsonTypeError &) {
        error = csprintf("%s must be a non-negative integer, found %s",
                         key, v.dump().c_str());
        return false;
    }
    if (type == Type::UInt32 && out > maxU32) {
        error = csprintf("%s is out of range: %llu", key,
                         (unsigned long long)out);
        return false;
    }
    if (!inRange(out)) {
        error = csprintf("%s must be at %s %llu (%llu is out of range "
                         "[%llu, %llu])",
                         key, out < minValue ? "least" : "most",
                         (unsigned long long)(out < minValue
                                                  ? minValue
                                                  : maxValue),
                         (unsigned long long)out,
                         (unsigned long long)minValue,
                         (unsigned long long)maxValue);
        return false;
    }
    return true;
}

std::string
ParamSpec::describe(std::uint64_t value) const
{
    return std::string(label != nullptr ? label : key) + "=" +
           (type == Type::Enum ? std::string(enumNames[value])
                               : std::to_string(value));
}

void
ParamSpec::writeJson(JsonWriter &jw, std::uint64_t value) const
{
    if (type == Type::Enum)
        jw.field(key, enumNames[value]);
    else
        jw.field(key, value);
}

ParamSpec
ParamSpec::uintSpec(const char *key, const char *help,
                    unsigned EngineParams::*field,
                    std::uint64_t min_value, std::uint64_t max_value)
{
    return bind({.key = key,
                 .help = help,
                 .minValue = min_value,
                 .maxValue = max_value},
                field);
}

ParamSpec
ParamSpec::boolSpec(const char *key, const char *help,
                    bool EngineParams::*field)
{
    return bind({.key = key, .help = help, .maxValue = 1}, field);
}

const std::vector<ParamSpec> &
coreParamSpecs()
{
    using Type = ParamSpec::Type;
    static const std::vector<ParamSpec> table = {
        bind({.key = "ftqEntries",
              .label = "ftq",
              .help = "fetch target queue entries per thread",
              .minValue = 1,
              .maxValue = maxU32},
             &CoreParams::ftqEntries),
        bind({.key = "fetchBufferSize",
              .label = "fbuf",
              .help = "shared fetch buffer entries",
              .minValue = 1,
              .maxValue = maxU32,
              .coversFetchWidth = true},
             &CoreParams::fetchBufferSize),
        bind({.key = "robEntries",
              .label = "rob",
              .help = "shared reorder buffer entries",
              .minValue = 8,
              .maxValue = maxU32},
             &CoreParams::robEntries),
        bind({.key = "longLoadPolicy",
              .label = "llp",
              .help = "long-latency-load policy (Tullsen & Brown)",
              .type = Type::Enum,
              .maxValue = 2,
              .enumNames = {longLoadPolicyName(LongLoadPolicy::None),
                            longLoadPolicyName(LongLoadPolicy::Stall),
                            longLoadPolicyName(LongLoadPolicy::Flush)}},
             &CoreParams::longLoadPolicy),
        bind({.key = "longLoadThreshold",
              .label = "llthresh",
              .help = "load latency (cycles) beyond which a load "
                      "counts as long",
              .type = Type::UInt64},
             &CoreParams::longLoadThreshold),
        // Beyond 6 the smallest Table 3 structure (streamL1Entries =
        // 1024, 4-way) shrinks below a usable geometry and the run
        // aborts.
        {.key = "predictorShift",
         .label = "predshift",
         .help = "right-shift applied to every predictor table size "
                 "(halves the ~45KB budget per step)",
         .type = Type::UInt64,
         .maxValue = 6,
         .rescales = true,
         .set =
             [](CoreParams &c, std::uint64_t v) {
                 auto &ep = c.engineParams;
                 for (unsigned *size :
                      {&ep.gshareEntries, &ep.gskewEntriesPerBank,
                       &ep.btbEntries, &ep.ftbEntries,
                       &ep.streamL1Entries, &ep.streamL2Entries})
                     *size >>= v;
             }},
    };
    return table;
}

} // namespace smt
