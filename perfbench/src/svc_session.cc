/**
 * @file
 * svc-session: one closed-loop client drives a ctamemd daemon (4
 * workers, a fresh disk-cache directory per session) over its
 * stdin/stdout frame protocol, keeping up to 4 one-cell submits in
 * flight.  The request stream (RequestStream) mostly repeats recent
 * cells, which the daemon's memory tier answers; the rest are new
 * Table-1 cells that restore a config snapshot or boot cold.  Every
 * response to one cell must carry the same deterministic fields,
 * seed-1234 cells must match BENCH_table1.json, and no frame may be
 * an error or a rejection.
 */

#include <map>
#include <memory>
#include <unordered_map>

#include "common/json.hh"
#include "daemon.hh"
#include "sim/scenario.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace ctamem;
using json::Json;

constexpr unsigned kOutstanding = 4;
constexpr int kPings = 50;
/** Requests per throughput window. */
constexpr std::size_t kWindow = 500;

/** One session's daemon counters (its final "stats" frame). */
struct SessionStats
{
    double hitRate = 0.0;
    double memHits = 0.0;
    double diskHits = 0.0;
    double dupExecFrac = 0.0;
    double snapshotRestores = 0.0;
    double snapshotCaptures = 0.0;
    double profileHits = 0.0;
    double profileBuilds = 0.0;
};

Json
typedFrame(const char *type)
{
    Json frame = Json::object();
    frame.set("type", type);
    return frame;
}

std::string
frameType(const Json &frame)
{
    const Json *type = frame.find("type");
    return type && type->isString() ? type->asString() : std::string();
}

/** The one-cell scenario manifest of @p cell. */
Json
manifestOf(const sim::CampaignCell &cell)
{
    Json manifest = Json::object();
    manifest.set("schema_version", sim::kScenarioSchemaVersion);
    Json cells = Json::array();
    cells.push(sim::toJson(cell));
    manifest.set("cells", std::move(cells));
    return manifest;
}

/** Spawn ctamemd (kWorkers workers, disk cache in @p cacheDir) and
 *  wait for its first "pong"; throws std::runtime_error. */
std::unique_ptr<Daemon>
startDaemon(const Options &options, const std::string &cacheDir)
{
    auto daemon = std::make_unique<Daemon>(
        daemonPath(options), std::vector<std::string>{
                          "--workers", std::to_string(kWorkers),
                          "--cache-dir", cacheDir});
    daemon->send(typedFrame("ping"));
    if (frameType(daemon->receive()) != "pong")
        throw std::runtime_error("ctamemd did not answer ping");
    return daemon;
}

/** Client plus daemon peak RSS since the last call, in MiB. */
double
windowPeakRssMb(const Daemon &daemon)
{
    const double peak = peakRssMb() + peakRssMb(daemon.pid());
    resetPeakRss();
    resetPeakRss(daemon.pid());
    return peak;
}

/**
 * Run one session against a fresh daemon: @p count requests, or until
 * the time is up when @p count is 0.  With a @p tracer, the session
 * also records the client-side spans: ping, hit, miss, the client's
 * own CPU time per request, and JSON encode/parse of each cell's
 * first answer.
 */
Pass
session(const Options &options, std::uint64_t count,
        const std::map<std::string, GoldenCell> &golden, Tracer *tracer,
        Outcome &outcome, SessionStats &stats, double &setupSeconds)
{
    const Clock::time_point setupStart = Clock::now();
    const std::string cacheDir = scratchDir(options, "svc-cache");
    const std::unique_ptr<Daemon> owned = startDaemon(options, cacheDir);
    Daemon &daemon = *owned;
    setupSeconds = secondsSince(setupStart);
    markFirstOperation();

    if (tracer) {
        for (int i = 0; i < kPings; ++i) {
            const Clock::time_point start = Clock::now();
            daemon.send(typedFrame("ping"));
            daemon.receive();
            tracer->record("svc.ping", "svc", start, Clock::now());
        }
    }

    struct InFlight
    {
        std::size_t cell;
        Clock::time_point sent;
        double clientCpu = 0.0; //!< this request's share of client CPU
        bool cached = false;
        bool sawCell = false;
    };
    RequestStream stream(options.seed);
    std::unordered_map<std::uint64_t, InFlight> inFlight;
    std::vector<Json> manifests;       // per distinct cell
    std::vector<std::string> expected; // per distinct cell, once seen
    Pass pass;

    const Clock::time_point start = Clock::now();
    Clock::time_point windowStart = start;
    windowPeakRssMb(daemon); // the first window starts here
    std::uint64_t sent = 0;
    bool issuing = true;
    for (;;) {
        while (issuing && inFlight.size() < kOutstanding) {
            if (count ? sent >= count
                      : secondsSince(start) >= options.seconds &&
                            pass.opSeconds.size() >= kMinOps) {
                issuing = false;
                break;
            }
            const double cpu = tracer ? threadCpuSeconds() : 0.0;
            InFlight request{stream.next(), Clock::now()};
            if (request.cell == manifests.size())
                manifests.push_back(
                    manifestOf(stream.cells()[request.cell]));
            const std::uint64_t id = sent++;
            Json submit = typedFrame("submit");
            submit.set("id", id).set("manifest", manifests[request.cell]);
            daemon.send(submit);
            if (tracer)
                request.clientCpu = threadCpuSeconds() - cpu;
            inFlight.emplace(id, request);
            ++pass.attempted;
        }
        if (inFlight.empty())
            break;

        const double cpu = tracer ? threadCpuSeconds() : 0.0;
        const Json frame = daemon.receive();
        const Clock::time_point received = Clock::now();
        const std::string type = frameType(frame);
        const Json *id = frame.find("id");
        auto it = id && id->isNumber() ? inFlight.find(id->asU64())
                                       : inFlight.end();
        if (it == inFlight.end()) {
            outcome.fail("unexpected frame: " +
                         frame.dump().substr(0, 200));
            throw std::runtime_error("ctamemd protocol out of step");
        }
        InFlight &request = it->second;
        const sim::CampaignCell &asked = stream.cells()[request.cell];
        bool finished = true;
        if (type == "accepted") {
            finished = false;
        } else if (type == "cell") {
            finished = false;
            request.sawCell = true;
            request.cached = frame.at("cached").asBool();
            const sim::CellResult result =
                sim::cellResultFromJson(frame.at("result"));
            if (!request.cached)
                pass.busySeconds += result.wallSeconds;
            const Clock::time_point encode = Clock::now();
            std::string fields = deterministicFields(result);
            if (tracer)
                tracer->record("common.json.encode", "common", encode,
                               Clock::now());
            if (request.cell >= expected.size())
                expected.resize(request.cell + 1);
            bool ok = true;
            if (expected[request.cell].empty()) {
                // First answer for this cell: check it; later answers
                // must repeat its deterministic fields.
                if (tracer) {
                    const std::string text = frame.dump();
                    const Clock::time_point parse = Clock::now();
                    Json::parse(text);
                    tracer->record("common.json.parse", "common", parse,
                                   Clock::now());
                }
                if (!(result.cell == asked)) {
                    outcome.fail("cell frame for the wrong cell");
                    ok = false;
                }
                if (result.cell.config.seed == seeds::kMachine) {
                    const std::string diff = goldenMismatch(result, golden);
                    if (!diff.empty()) {
                        outcome.fail("svc seed-1234 cell " + diff);
                        ok = false;
                    }
                }
                expected[request.cell] = std::move(fields);
            } else if (expected[request.cell] != fields) {
                outcome.fail("cell " + asked.label +
                             " answered differently on a repeat");
                ok = false;
            }
            pass.failed += ok ? 0 : 1;
        } else if (type == "done") {
            pass.opSeconds.push_back(secondsBetween(request.sent, received));
            if (pass.opSeconds.size() % kWindow == 0) {
                pass.windowRates.push_back(
                    kWindow / secondsBetween(windowStart, received));
                pass.windowPeakRssMb.push_back(windowPeakRssMb(daemon));
                windowStart = received;
            }
            if (!request.sawCell) {
                outcome.fail("done frame without a cell frame");
                ++pass.failed;
            }
        } else {
            // error / rejected: the request failed.
            outcome.fail(type + " frame: " + frame.dump().substr(0, 200));
            ++pass.failed;
            pass.opSeconds.push_back(secondsBetween(request.sent, received));
        }
        if (tracer)
            request.clientCpu += threadCpuSeconds() - cpu;
        if (!finished)
            continue;
        if (tracer) {
            if (type == "done")
                tracer->record(request.cached ? "svc.hit" : "svc.miss",
                               "svc", request.sent, received);
            tracer->record("svc.client", "svc", request.sent,
                           plusSeconds(request.sent, request.clientCpu));
        }
        inFlight.erase(it);
    }
    pass.wallSeconds = secondsSince(start);
    pass.units = sent;
    if (pass.windowRates.empty()) {
        pass.windowRates.push_back(pass.opSeconds.size() / pass.wallSeconds);
        pass.windowPeakRssMb.push_back(windowPeakRssMb(daemon));
    }

    Digest digest;
    for (const std::string &fields : expected)
        digest.add(fields);
    pass.digest = digest.hex();

    daemon.send(typedFrame("stats"));
    const Json reply = daemon.receive();
    if (frameType(reply) != "stats")
        throw std::runtime_error("ctamemd did not answer stats");
    const double executed = reply.at("cellsExecuted").asDouble();
    const double distinct = static_cast<double>(stream.cells().size());
    const Json &results = reply.at("resultCache");
    stats.hitRate = results.at("hitRate").asDouble();
    stats.memHits = results.at("memHits").asDouble();
    stats.diskHits = results.at("diskHits").asDouble();
    stats.dupExecFrac =
        executed > 0 ? std::max(0.0, executed - distinct) / executed : 0.0;
    stats.snapshotRestores = reply.at("snapshotRestores").asDouble();
    stats.snapshotCaptures = reply.at("snapshotCaptures").asDouble();
    stats.profileHits = reply.at("profileCache").at("hits").asDouble();
    stats.profileBuilds = reply.at("profileCache").at("misses").asDouble();
    if (!daemon.shutdown())
        outcome.fail("ctamemd did not shut down cleanly");
    removeTree(cacheDir);
    return pass;
}

} // namespace

Outcome
runSvcSession(const Options &options, Tracer &tracer)
{
    Outcome outcome;
    const std::map<std::string, GoldenCell> golden =
        loadGolden(options.root + "/BENCH_table1.json");
    if (options.setupOnly) {
        // Set-up is the daemon's spawn and first answer.
        const std::string cacheDir = scratchDir(options, "svc-cache");
        const std::unique_ptr<Daemon> daemon =
            startDaemon(options, cacheDir);
        markFirstOperation();
        daemon->shutdown();
        removeTree(cacheDir);
        return outcome;
    }

    SessionStats stats;
    double setupSeconds = 0.0;
    outcome.untraced = session(options, 0, golden, nullptr, outcome,
                               stats, setupSeconds);
    outcome.untraced.setupSeconds = setupSeconds;
    if (!options.trace)
        return outcome;

    const Pass &untraced = outcome.untraced;
    MetricSet &layers = outcome.layers;
    setRatio(layers, "runtime.pool_util", untraced.busySeconds,
             untraced.wallSeconds * kWorkers);
    layers.set("dram.profile_builds", stats.profileBuilds, "count");
    setRatio(layers, "dram.profile_hit_rate", stats.profileHits,
             stats.profileHits + stats.profileBuilds);
    layers.set("svc.hit_rate", stats.hitRate, "ratio");
    layers.set("svc.mem_hits", stats.memHits, "count");
    layers.set("svc.disk_hits", stats.diskHits, "count");
    layers.set("svc.dup_exec_frac", stats.dupExecFrac, "ratio");
    layers.set("svc.snapshot_restores", stats.snapshotRestores, "count");
    layers.set("svc.snapshot_captures", stats.snapshotCaptures, "count");

    // Traced session: a fresh daemon and cache, the same requests.
    SessionStats tracedStats;
    double tracedSetup = 0.0;
    outcome.traced = session(options, untraced.units, golden, &tracer,
                             outcome, tracedStats, tracedSetup);
    outcome.traced.setupSeconds = tracedSetup;
    if (outcome.traced.digest != untraced.digest)
        outcome.fail("traced digest " + outcome.traced.digest +
                     " != untraced digest " + untraced.digest);
    return outcome;
}

} // namespace perfbench
