/**
 * @file
 * The one parameter-spec type behind every spec-settable knob. A row
 * binds an override key (as spelled in JSON sweep specs, BENCH
 * records and journal lines) to a CoreParams setting, together with
 * its describe() label, help text, accepted range and, for enum
 * knobs, the value names.
 *
 * The core table (coreParamSpecs) holds the Table 3 structural knobs;
 * the engine registry's per-engine schemas (bpred/engine_registry.hh)
 * are rows of the same type. RunOverrides (sim/experiment.hh) parses,
 * range-checks, applies, describes and serializes overrides by walking
 * these rows and never names a key, so a new knob is one new row.
 */

#ifndef SMTFETCH_CORE_PARAM_SPEC_HH
#define SMTFETCH_CORE_PARAM_SPEC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace smt
{

struct CoreParams;
struct EngineParams;
class JsonValue;
class JsonWriter;

/** One spec-settable knob; values travel as unsigned 64-bit. */
struct ParamSpec
{
    /** How a value is spelled in JSON and how wide its setting is. */
    enum class Type
    {
        UInt32, //!< a number stored in 32 bits
        UInt64, //!< a number stored in 64 bits
        Enum,   //!< a case-insensitive name; the value is its index
    };

    const char *key = nullptr;

    /** describe() label ("ftq" in "ftq=4"); the key when null. */
    const char *label = nullptr;

    const char *help = nullptr;
    Type type = Type::UInt32;
    std::uint64_t minValue = 0;
    std::uint64_t maxValue = ~std::uint64_t{0};

    /** Enum rows: value i is spelled enumNames[i]. */
    std::vector<const char *> enumNames;

    /**
     * The setter rescales what other rows set rather than binding a
     * setting of its own: apply() runs it after every other row, and
     * zero (the identity) means "not overridden", with no variant and
     * no record member.
     */
    bool rescales = false;

    /** The value must cover the widest fetch policy of its sweep. */
    bool coversFetchWidth = false;

    /** Read the bound setting; null for rows that only rescale. */
    std::function<std::uint64_t(const CoreParams &)> get;

    /** Write the setting (no range check; see inRange). */
    std::function<void(CoreParams &, std::uint64_t)> set;

    bool
    inRange(std::uint64_t value) const
    {
        return value >= minValue && value <= maxValue;
    }

    /**
     * Decode a spec or journal JSON value. On a type or range
     * violation returns false with `error` naming the key and the
     * accepted values.
     */
    bool decode(const JsonValue &v, std::uint64_t &out,
                std::string &error) const;

    /** "label=value" as describe() renders it ("llp=stall"). */
    std::string describe(std::uint64_t value) const;

    /** Emit `"key": value` into an open JSON object. */
    void writeJson(JsonWriter &jw, std::uint64_t value) const;

    /** @name Terse row constructors for EngineParams members. */
    /// @{
    static ParamSpec uintSpec(const char *key, const char *help,
                              unsigned EngineParams::*field,
                              std::uint64_t min_value,
                              std::uint64_t max_value);
    static ParamSpec boolSpec(const char *key, const char *help,
                              bool EngineParams::*field);
    /// @}
};

/**
 * The core override table, in describe()/record order: ftqEntries,
 * fetchBufferSize, robEntries, longLoadPolicy, longLoadThreshold,
 * predictorShift.
 */
const std::vector<ParamSpec> &coreParamSpecs();

} // namespace smt

#endif // SMTFETCH_CORE_PARAM_SPEC_HH
