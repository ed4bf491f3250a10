/**
 * @file
 * Process-wide fetch-engine registry: every engine self-registers a
 * canonical name (plus aliases), a description, a typed parameter
 * schema binding JSON spec keys to EngineParams members, a factory,
 * an optional preset (EngineParams flag flips for the oracle and
 * adaptive modes), and its checkpoint section tag.
 *
 * Everything outside src/bpred — SweepSpec's engine strings and
 * overrides, SimConfig presets, the checkpoint section name, smtsim
 * --list-engines, the registry-parameterized tests — resolves engines
 * through this table instead of switching on EngineKind, so adding an
 * engine means adding one registration function here and nothing
 * elsewhere.
 *
 * Registration is explicit rather than via static registrar objects:
 * the registry constructor calls each engine's registration function
 * in canonical order. (Static registrars in a static library would be
 * dropped by the linker for translation units nothing references, and
 * the EngineKind values double as dense ids, so the order is part of
 * the contract — the registry panics if a registration lands out of
 * order.)
 */

#ifndef SMTFETCH_BPRED_ENGINE_REGISTRY_HH
#define SMTFETCH_BPRED_ENGINE_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bpred/fetch_engine.hh"
#include "core/param_spec.hh"

namespace smt
{

/** Everything the registry knows about one engine. */
struct EngineDescriptor
{
    EngineKind kind = EngineKind::GshareBtb;

    /** Canonical display name ("gshare+BTB", "tage", ...). */
    const char *name = nullptr;

    const char *description = nullptr;

    /** Checkpoint section tag ("engine.gshare", ...). */
    std::string checkpointTag;

    /** Extra accepted spellings (resolution also normalizes). */
    std::vector<std::string> aliases;

    std::function<std::unique_ptr<FetchEngine>(const EngineParams &)>
        factory;

    /** Parameter-flag flips applied before construction (oracle and
     *  adaptive presets); nullptr for plain engines. */
    void (*preset)(EngineParams &) = nullptr;

    /** Spec-settable parameters relevant to this engine (rows of
     *  the one override schema, core/param_spec.hh). */
    std::vector<ParamSpec> params;
};

/** The singleton registry (built on first use, then immutable). */
class EngineRegistry
{
  public:
    static const EngineRegistry &instance();

    /** Register one engine; enforces dense in-order kind ids and
     *  unique (normalized) names. */
    void add(EngineDescriptor d);

    const EngineDescriptor &descriptor(EngineKind kind) const;

    /**
     * Resolve a user-supplied engine name (canonical, alias, or any
     * case/punctuation variant thereof); nullptr when unknown.
     */
    const EngineDescriptor *find(const std::string &name) const;

    /** Resolve an engine-parameter override key; nullptr if unknown. */
    const ParamSpec *findParam(const std::string &key) const;

    const std::vector<EngineDescriptor> &all() const
    {
        return engines;
    }

    /** "gshare+BTB, gskew+FTB, stream, tage, ..." for errors. */
    std::string knownNames() const;

  private:
    EngineRegistry();

    std::vector<EngineDescriptor> engines;
};

/** Lower-case a name and strip "+", "_", "-" and spaces. */
std::string normalizeEngineToken(const std::string &name);

/** Apply `kind`'s registry preset (if any) to `params` in place. */
void applyEnginePreset(EngineKind kind, EngineParams &params);

/** Every registered engine, in registry order. */
const std::vector<EngineKind> &allEngines();

/** The three paper engines, in paper order. */
const std::vector<EngineKind> &paperEngines();

/** @name Per-engine registration (called by the registry ctor). */
/// @{
void registerPaperEngines(EngineRegistry &reg);   // fetch_engine.cc
void registerTageEngine(EngineRegistry &reg);     // tage.cc
void registerPresetEngines(EngineRegistry &reg);  // fetch_engine.cc
/// @}

} // namespace smt

#endif // SMTFETCH_BPRED_ENGINE_REGISTRY_HH
