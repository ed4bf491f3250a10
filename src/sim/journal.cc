#include "sim/journal.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "sim/result_codec.hh"
#include "sim/scheduler.hh"
#include "sim/snapshot_cache.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace smt
{

namespace
{

constexpr const char *journalSchema = "smtfetch-journal-v1";

std::string
headerLine(const std::string &bench, const std::string &request_key,
           std::size_t points, std::size_t warmup_groups)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("schema", journalSchema);
    jw.field("bench", bench);
    jw.field("requestKey", request_key);
    jw.field("points", static_cast<std::uint64_t>(points));
    jw.field("warmupGroups",
             static_cast<std::uint64_t>(warmup_groups));
    jw.endObject();
    return os.str();
}

std::string
entryLine(std::size_t index, const PointOutcome &outcome)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("point", static_cast<std::uint64_t>(index));
    jw.key("outcome");
    jw.raw(outcomeToWireJson(outcome));
    jw.endObject();
    return os.str();
}

} // namespace

std::string
SweepJournal::pathFor(const std::string &dir, const std::string &bench)
{
    std::string safe = bench;
    for (char &c : safe)
        if (c == '/' || c == '\\')
            c = '_';
    return dir + "/journal_" + safe + ".jsonl";
}

SweepJournal::SweepJournal(std::string path, std::string bench,
                           std::string request_key,
                           std::size_t points,
                           std::size_t warmup_groups, bool fresh)
    : path(std::move(path)), bench(std::move(bench)),
      requestKey(std::move(request_key)), points(points),
      warmupGroups(warmup_groups)
{
    load(points, fresh);
    rewrite();
}

void
SweepJournal::load(std::size_t total_points, bool fresh)
{
    std::ifstream in(path);
    if (!in || fresh)
        return; // nothing to resume (or resume declined)

    std::string line;
    if (!std::getline(in, line) || line.empty())
        return; // empty file: treat as fresh

    JsonValue header;
    try {
        header = jsonParse(line);
    } catch (const JsonParseError &e) {
        throw JournalError(csprintf(
            "journal %s has an unreadable header (%s) — delete it "
            "or rerun with --fresh to start over",
            path.c_str(), e.what()));
    }
    const JsonValue *schema = header.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != journalSchema)
        throw JournalError(csprintf(
            "journal %s is not a %s file — delete it or rerun "
            "with --fresh to start over",
            path.c_str(), journalSchema));
    const JsonValue *key = header.find("requestKey");
    if (key == nullptr || !key->isString() ||
        key->asString() != requestKey)
        throw JournalError(csprintf(
            "journal %s was written by a different sweep "
            "(requestKey %s, this request is %s) — the grids, "
            "windows or seed differ; rerun with --fresh to discard "
            "it or point the checkpoint directory elsewhere",
            path.c_str(),
            key != nullptr && key->isString()
                ? key->asString().c_str()
                : "<missing>",
            requestKey.c_str()));

    // Entries: skip duplicates (keep the first), tolerate exactly
    // one torn line at the tail.
    std::map<std::size_t, PointOutcome> seen;
    std::size_t lineno = 1;
    for (;;) {
        std::string text;
        if (!std::getline(in, text))
            break;
        ++lineno;
        if (text.empty())
            continue;
        bool at_tail = in.peek() == std::ifstream::traits_type::eof();
        try {
            JsonValue doc = jsonParse(text);
            const JsonValue *point = doc.find("point");
            const JsonValue *outcome = doc.find("outcome");
            if (point == nullptr || outcome == nullptr)
                throw CodecError(
                    "entry needs \"point\" and \"outcome\"");
            std::size_t idx =
                static_cast<std::size_t>(point->asUInt64());
            if (idx >= total_points)
                throw JournalError(csprintf(
                    "journal %s line %zu names point %zu of a "
                    "%zu-point grid — the journal belongs to a "
                    "different request; rerun with --fresh",
                    path.c_str(), lineno, idx, total_points));
            seen.emplace(idx, outcomeFromWireJson(*outcome));
        } catch (const JournalError &) {
            throw;
        } catch (const std::exception &e) {
            if (at_tail) {
                // The run died mid-append; the entry never
                // finished, so the point simply reruns.
                warn("journal %s: dropping torn final line %zu",
                     path.c_str(), lineno);
                break;
            }
            throw JournalError(csprintf(
                "journal %s line %zu is corrupt (%s) — delete the "
                "journal or rerun with --fresh to start over",
                path.c_str(), lineno, e.what()));
        }
    }

    entries.reserve(seen.size());
    for (auto &[idx, outcome] : seen)
        entries.push_back({idx, std::move(outcome)});
}

void
SweepJournal::rewrite()
{
    // Normalize on open (drop torn tails and duplicates), then
    // append live completions to the rewritten file. Write-then-
    // rename so a kill during the rewrite leaves the old journal.
    unsigned long long pid =
#ifdef _WIN32
        0;
#else
        static_cast<unsigned long long>(::getpid());
#endif
    std::string tmp = path + csprintf(".tmp%llx", pid);
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            throw JournalError(csprintf(
                "cannot write journal %s: %s", tmp.c_str(),
                std::strerror(errno)));
        out << headerLine(bench, requestKey, points, warmupGroups)
            << '\n';
        for (const JournalEntry &e : entries)
            out << entryLine(e.index, e.outcome) << '\n';
        out.flush();
        if (!out)
            throw JournalError(csprintf(
                "cannot write journal %s: %s", tmp.c_str(),
                std::strerror(errno)));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        throw JournalError(csprintf(
            "cannot move journal into place at %s: %s", path.c_str(),
            std::strerror(err)));
    }
    os.open(path, std::ios::app);
    if (!os)
        throw JournalError(csprintf("cannot append to journal %s: %s",
                                    path.c_str(),
                                    std::strerror(errno)));
}

void
SweepJournal::append(std::size_t index, const PointOutcome &outcome)
{
    std::string line = entryLine(index, outcome);
    std::lock_guard<std::mutex> lock(m);
    os << line << '\n';
    os.flush();
    if (!os)
        warn("journal %s: append failed — the sweep continues but "
             "a resume will recompute this point",
             path.c_str());
}

SweepReport
runJournaled(const SweepRequest &request, const std::string &bench,
             bool fresh)
{
    if (request.checkpointDir.empty())
        throw std::invalid_argument(
            "a journaled sweep needs a checkpoint directory");

    // The journal header records the same warmup grouping the
    // scheduler reports.
    PointExecutor probe(ExecutorParams{request.warmupCycles,
                                       request.measureCycles,
                                       request.seed, request.cycleSkip});
    std::unordered_set<std::string> groups;
    for (const GridPoint &p : request.points)
        if (PointExecutor::reusable(p))
            groups.insert(probe.warmupKey(p));

    SweepScheduler::SubmitOptions so;
    so.journal = std::make_unique<SweepJournal>(
        SweepJournal::pathFor(request.checkpointDir, bench), bench,
        sweepRequestKey(request), request.points.size(), groups.size(),
        fresh);
    so.precompleted = so.journal->completed();
    if (!so.precompleted.empty()) {
        inform("resuming %s: %zu of %zu points already journaled in %s",
               bench.c_str(), so.precompleted.size(),
               request.points.size(), request.checkpointDir.c_str());
        std::fflush(stdout);
    }

    WarmupSnapshotCache cache;
    SweepScheduler scheduler(
        ExperimentRunner::workersFor(request.points.size()), &cache);
    return scheduler.wait(scheduler.submit(request, bench, std::move(so)));
}

} // namespace smt
