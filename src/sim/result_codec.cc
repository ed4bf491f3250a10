#include "sim/result_codec.hh"

#include <sstream>

#include "sim/sweep_spec.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace smt
{

namespace
{

[[noreturn]] void
codecFail(const std::string &what)
{
    throw CodecError("result codec: " + what);
}

const JsonValue &
member(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    if (v == nullptr)
        codecFail(csprintf("missing \"%s\" member", key));
    return *v;
}

std::uint64_t
u64Member(const JsonValue &doc, const char *key)
{
    const JsonValue &v = member(doc, key);
    if (!v.isNumber())
        codecFail(csprintf("\"%s\" must be a number, found %s", key,
                           v.kindName()));
    return v.asUInt64();
}

double
numMember(const JsonValue &doc, const char *key)
{
    const JsonValue &v = member(doc, key);
    if (!v.isNumber())
        codecFail(csprintf("\"%s\" must be a number, found %s", key,
                           v.kindName()));
    return v.asNumber();
}

std::string
strMember(const JsonValue &doc, const char *key)
{
    const JsonValue &v = member(doc, key);
    if (!v.isString())
        codecFail(csprintf("\"%s\" must be a string, found %s", key,
                           v.kindName()));
    return v.asString();
}

RunOverrides
overridesFromWire(const JsonValue &doc)
{
    if (!doc.isObject())
        codecFail(csprintf("\"overrides\" must be an object, "
                           "found %s",
                           doc.kindName()));
    RunOverrides o;
    for (const auto &[key, value] : doc.asObject()) {
        std::string error;
        if (!o.setJson(key, value, error))
            codecFail(error);
    }
    return o;
}

} // namespace

void
writeResultJson(JsonWriter &jw, const ExperimentResult &r)
{
    jw.beginObject();
    jw.field("workload", r.workload);
    jw.field("engine", engineName(r.engine));
    jw.field("policy", policyName(r.policy));
    jw.field("fetchThreads", r.fetchThreads);
    jw.field("fetchWidth", r.fetchWidth);
    jw.field("policyString",
             std::string(policyName(r.policy)) + "." +
                 r.policyDotString());
    if (r.overrides.any()) {
        jw.field("variant", r.overrides.describe());
        jw.key("overrides");
        jw.beginObject();
        r.overrides.writeJson(jw);
        jw.endObject();
    }
    jw.field("warmupCycles", r.warmupCycles);
    jw.field("measureCycles", r.measureCycles);
    jw.field("ipfc", r.ipfc);
    jw.field("ipc", r.ipc);
    jw.key("stats");
    if (r.statsJson.empty())
        jw.raw("{}");
    else
        jw.raw(r.statsJson);
    jw.endObject();
}

std::string
resultToWireJson(const ExperimentResult &r)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("workload", r.workload);
    jw.field("engine", engineName(r.engine));
    jw.field("policy", policyName(r.policy));
    jw.field("fetchThreads", r.fetchThreads);
    jw.field("fetchWidth", r.fetchWidth);
    if (r.overrides.any()) {
        jw.key("overrides");
        jw.beginObject();
        r.overrides.writeJson(jw);
        jw.endObject();
    }
    jw.field("warmupCycles", r.warmupCycles);
    jw.field("measureCycles", r.measureCycles);
    jw.field("ipfc", r.ipfc);
    jw.field("ipc", r.ipc);
    // The sweep accounting reads these back without re-parsing the
    // full stats document.
    jw.field("instsCommitted", r.stats.instsCommitted);
    jw.field("cyclesSkipped", r.stats.cyclesSkipped);
    jw.field("sleepEvents", r.stats.sleepEvents);
    jw.field("maxSkipSpan", r.stats.maxSkipSpan);
    // As an escaped STRING member, not a nested object: parsing a
    // nested object would funnel 64-bit counters through doubles and
    // corrupt values above 2^53; the string round-trips losslessly.
    jw.field("statsJson", r.statsJson);
    jw.endObject();
    return os.str();
}

ExperimentResult
resultFromWireJson(const JsonValue &doc)
{
    if (!doc.isObject())
        codecFail(csprintf("a result must be an object, found %s",
                           doc.kindName()));
    ExperimentResult r;
    r.workload = strMember(doc, "workload");
    r.engine = engineKindFromString(strMember(doc, "engine"));
    r.policy = policyKindFromString(strMember(doc, "policy"));
    r.fetchThreads =
        static_cast<unsigned>(u64Member(doc, "fetchThreads"));
    r.fetchWidth =
        static_cast<unsigned>(u64Member(doc, "fetchWidth"));
    if (const JsonValue *o = doc.find("overrides"))
        r.overrides = overridesFromWire(*o);
    r.warmupCycles = u64Member(doc, "warmupCycles");
    r.measureCycles = u64Member(doc, "measureCycles");
    r.ipfc = numMember(doc, "ipfc");
    r.ipc = numMember(doc, "ipc");
    r.stats.instsCommitted = u64Member(doc, "instsCommitted");
    r.stats.cyclesSkipped = u64Member(doc, "cyclesSkipped");
    r.stats.sleepEvents = u64Member(doc, "sleepEvents");
    r.stats.maxSkipSpan = u64Member(doc, "maxSkipSpan");
    r.statsJson = strMember(doc, "statsJson");
    return r;
}

std::string
outcomeToWireJson(const PointOutcome &outcome)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("served", outcome.ranWarmup  ? "warmup"
                       : outcome.restored ? "restored"
                                          : "direct");
    if (outcome.restored)
        jw.field("diskHit", outcome.diskHit);
    jw.field("warmupSeconds", outcome.warmupSeconds);
    jw.field("measureSeconds", outcome.measureSeconds);
    jw.key("result");
    jw.raw(resultToWireJson(outcome.result));
    jw.endObject();
    return os.str();
}

PointOutcome
outcomeFromWireJson(const JsonValue &doc)
{
    if (!doc.isObject())
        codecFail(csprintf("an outcome must be an object, found %s",
                           doc.kindName()));
    PointOutcome o;
    std::string served = strMember(doc, "served");
    if (served == "warmup")
        o.ranWarmup = true;
    else if (served == "restored")
        o.restored = true;
    else if (served == "direct")
        o.direct = true;
    else
        codecFail(csprintf("unknown \"served\" value \"%s\"",
                           served.c_str()));
    if (const JsonValue *v = doc.find("diskHit"))
        o.diskHit = v->asBool();
    o.warmupSeconds = numMember(doc, "warmupSeconds");
    o.measureSeconds = numMember(doc, "measureSeconds");
    o.result = resultFromWireJson(member(doc, "result"));
    return o;
}

std::string
sweepRequestKey(const SweepRequest &request)
{
    std::string s = csprintf(
        "smtfetch-sweep-v1|warmup=%llu|measure=%llu|seed=%llu|"
        "skip=%d|points=%zu",
        (unsigned long long)request.warmupCycles,
        (unsigned long long)request.measureCycles,
        (unsigned long long)request.seed, request.cycleSkip ? 1 : 0,
        request.points.size());
    for (const GridPoint &p : request.points) {
        s += csprintf("|%s/%s/%u.%u/%s", p.workload.c_str(),
                      engineName(p.engine), p.fetchThreads,
                      p.fetchWidth, policyName(p.policy));
        std::string variant = p.overrides.describe();
        if (!variant.empty())
            s += "/" + variant;
        if (!p.recordPath.empty())
            s += "/record=" + p.recordPath;
        if (!p.saveCheckpointPath.empty())
            s += "/save=" + p.saveCheckpointPath;
        if (!p.restoreCheckpointPath.empty())
            s += "/restore=" + p.restoreCheckpointPath;
    }
    return csprintf("%016llx",
                    (unsigned long long)Rng::hashString(s));
}

} // namespace smt
