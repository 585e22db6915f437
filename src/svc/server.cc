#include "svc/server.hh"

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "common/log.hh"
#include "fuzz/fuzzer.hh"
#include "sim/scenario.hh"
#include "svc/snapshot.hh"
#include "svc/wire.hh"

namespace ctamem::svc {

using json::Json;
using sim::CampaignCell;
using sim::CellResult;

namespace {

using Clock = std::chrono::steady_clock;

/** Distinct configs whose snapshot blobs are kept (LRU). */
constexpr std::size_t kSnapshotEntries = 32;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

Json
errorFrame(const Json &id, const std::string &message)
{
    Json j = Json::object();
    j.set("type", std::string("error"));
    j.set("id", id);
    j.set("message", message);
    return j;
}

} // namespace

/** Shared state of one accepted submission. */
struct CampaignService::Job
{
    Json id;
    std::vector<CellResult> results;
    std::vector<char> cached;
    std::atomic<std::size_t> remaining{0};
    /** Some cell threw: the report would miss it, so send no done. */
    std::atomic<bool> failed{false};
    Clock::time_point start = Clock::now();
};

CampaignService::CampaignService(const ServiceConfig &config)
    : config_(config),
      cache_(config.memCacheEntries, config.cacheDir),
      pool_(config.workers)
{}

CampaignService::~CampaignService()
{
    // Workers hold references to serve()-scoped streams; never tear
    // the pool down with cells still in flight.
    waitIdle();
}

ServiceCounters
CampaignService::counters() const
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    return counters_;
}

void
CampaignService::waitIdle()
{
    std::unique_lock<std::mutex> lock(pendingMutex_);
    idle_.wait(lock, [this] { return pendingCells_ == 0; });
}

std::unique_ptr<sim::Machine>
CampaignService::bootMachine(const sim::MachineConfig &config)
{
    const std::string key = configCacheKey(config);

    std::shared_ptr<const std::vector<std::uint8_t>> blob;
    {
        std::lock_guard<std::mutex> lock(snapshotMutex_);
        auto it = snapshots_.find(key);
        if (it != snapshots_.end())
            blob = it->second;
    }

    if (blob) {
        auto machine = restoreMachine(
            deserialize(blob->data(), blob->size()));
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.snapshotRestores;
        return machine;
    }

    auto machine = std::make_unique<sim::Machine>(config);
    auto taken = std::make_shared<const std::vector<std::uint8_t>>(
        serialize(captureSnapshot(*machine)));
    {
        std::lock_guard<std::mutex> lock(snapshotMutex_);
        if (snapshots_.emplace(key, std::move(taken)).second) {
            snapshotLru_.push_back(key);
            while (snapshots_.size() > kSnapshotEntries) {
                snapshots_.erase(snapshotLru_.front());
                snapshotLru_.pop_front();
            }
        }
    }
    std::lock_guard<std::mutex> lock(countersMutex_);
    ++counters_.snapshotCaptures;
    return machine;
}

CampaignService::CellOutcome
CampaignService::runCellCached(const CampaignCell &cell)
{
    const std::string key = cellCacheKey(cell);
    if (auto hit = cache_.lookup(key)) {
        CellOutcome outcome;
        // The stored row is replayed verbatim — original wallSeconds
        // included — so a fully cached resubmission assembles a
        // report bit-identical to the cold run's.
        outcome.result = sim::cellResultFromJson(*hit);
        outcome.cached = true;
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.cellsCached;
        return outcome;
    }

    CellOutcome outcome;
    outcome.result = sim::runCell(
        cell, [this](const sim::MachineConfig &config) {
            return bootMachine(config);
        });
    outcome.cached = false;
    cache_.insert(key, sim::toJson(outcome.result));
    std::lock_guard<std::mutex> lock(countersMutex_);
    ++counters_.cellsExecuted;
    return outcome;
}

Json
CampaignService::statsJson()
{
    const CacheStats cache = cache_.stats();
    const ServiceCounters counters = this->counters();
    const dram::ProfileCacheStats profiles =
        dram::profileCacheStats();

    std::size_t pending;
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        pending = pendingCells_;
    }
    std::size_t snapshotCount;
    {
        std::lock_guard<std::mutex> lock(snapshotMutex_);
        snapshotCount = snapshots_.size();
    }

    Json resultCache = Json::object();
    resultCache.set("hits", cache.hits)
        .set("misses", cache.misses)
        .set("memHits", cache.memHits)
        .set("diskHits", cache.diskHits)
        .set("insertions", cache.insertions)
        .set("evictions", cache.evictions)
        .set("memEntries", static_cast<std::uint64_t>(cache.memEntries))
        .set("memCapacity",
             static_cast<std::uint64_t>(cache.memCapacity))
        .set("hitRate", cache.hitRate());

    Json profileCache = Json::object();
    profileCache.set("hits", profiles.hits)
        .set("misses", profiles.misses)
        .set("evictions", profiles.evictions)
        .set("entries", static_cast<std::uint64_t>(profiles.entries))
        .set("capacity",
             static_cast<std::uint64_t>(profiles.capacity));

    // Fuzz campaigns run for many generations per cell; these
    // process-wide counters let a client watch search progress the
    // same way it watches cache behaviour.
    const fuzz::FuzzStats fuzzers = fuzz::fuzzStats();
    Json fuzzJson = Json::object();
    fuzzJson.set("runs", fuzzers.runs)
        .set("patternsEvaluated", fuzzers.patternsEvaluated)
        .set("generations", fuzzers.generations)
        .set("bypassesFound", fuzzers.bypassesFound)
        .set("bestFlips", fuzzers.bestFlips);

    Json j = Json::object();
    j.set("type", std::string("stats"))
        .set("schemaVersion", sim::kScenarioSchemaVersion)
        .set("workers", static_cast<std::uint64_t>(pool_.size()))
        .set("queueCapacity",
             static_cast<std::uint64_t>(config_.queueCapacity))
        .set("pendingCells", static_cast<std::uint64_t>(pending))
        .set("jobsAccepted", counters.jobsAccepted)
        .set("jobsRejected", counters.jobsRejected)
        .set("cellsExecuted", counters.cellsExecuted)
        .set("cellsCached", counters.cellsCached)
        .set("snapshotCaptures", counters.snapshotCaptures)
        .set("snapshotRestores", counters.snapshotRestores)
        .set("snapshotEntries",
             static_cast<std::uint64_t>(snapshotCount))
        .set("resultCache", std::move(resultCache))
        .set("profileCache", std::move(profileCache))
        .set("fuzz", std::move(fuzzJson));
    return j;
}

void
CampaignService::handleSubmit(const Json &request, std::ostream &out)
{
    Json id; // null unless the client tagged the submission
    if (const Json *requestId = request.find("id"))
        id = *requestId;

    const Json *manifest = request.find("manifest");
    if (!manifest) {
        std::lock_guard<std::mutex> lock(outMutex_);
        writeFrame(out,
                   errorFrame(id, "submit request has no manifest"));
        return;
    }

    sim::Campaign campaign;
    try {
        campaign = sim::campaignFromJson(*manifest);
    } catch (const json::JsonError &err) {
        std::lock_guard<std::mutex> lock(outMutex_);
        writeFrame(out, errorFrame(id, err.what()));
        return;
    }
    const std::size_t cellCount = campaign.size();

    // Backpressure: admission is all-or-nothing per submission, and
    // the bound covers every in-flight cell, not per-job counts.
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        if (pendingCells_ + cellCount > config_.queueCapacity) {
            Json rejected = Json::object();
            rejected.set("type", std::string("rejected"))
                .set("id", id)
                .set("reason", std::string("queue-full"))
                .set("cells", static_cast<std::uint64_t>(cellCount))
                .set("pending",
                     static_cast<std::uint64_t>(pendingCells_))
                .set("capacity", static_cast<std::uint64_t>(
                                     config_.queueCapacity));
            {
                std::lock_guard<std::mutex> outLock(outMutex_);
                writeFrame(out, rejected);
            }
            std::lock_guard<std::mutex> countersLock(countersMutex_);
            ++counters_.jobsRejected;
            return;
        }
        pendingCells_ += cellCount;
    }
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.jobsAccepted;
    }

    auto job = std::make_shared<Job>();
    job->id = id;
    job->results.resize(cellCount);
    job->cached.assign(cellCount, 0);
    job->remaining.store(cellCount);

    {
        Json accepted = Json::object();
        accepted.set("type", std::string("accepted"))
            .set("id", id)
            .set("cells", static_cast<std::uint64_t>(cellCount));
        std::lock_guard<std::mutex> lock(outMutex_);
        writeFrame(out, accepted);
    }

    for (std::size_t i = 0; i < cellCount; ++i) {
        const CampaignCell cell = campaign.cells()[i];
        pool_.submit([this, job, i, cell, &out] {
            Json frame;
            try {
                CellOutcome outcome = runCellCached(cell);
                frame = Json::object();
                frame.set("type", std::string("cell"))
                    .set("id", job->id)
                    .set("index", static_cast<std::uint64_t>(i))
                    .set("cached", outcome.cached)
                    .set("result", sim::toJson(outcome.result));
                job->results[i] = std::move(outcome.result);
                job->cached[i] = outcome.cached ? 1 : 0;
            } catch (const std::exception &err) {
                // A cell whose machine cannot boot fails its
                // submission, never the daemon: the client learns
                // which cell, and the in-flight count still drains.
                job->failed = true;
                frame = errorFrame(job->id, std::string("cell ") +
                                                std::to_string(i) +
                                                ": " + err.what());
                frame.set("index", static_cast<std::uint64_t>(i));
            }
            {
                std::lock_guard<std::mutex> lock(outMutex_);
                writeFrame(out, frame);
            }

            if (job->remaining.fetch_sub(1) == 1 && !job->failed) {
                // Last cell: assemble the manifest-ordered report.
                sim::CampaignReport report;
                report.cells = std::move(job->results);
                report.wallSeconds = secondsSince(job->start);

                std::uint64_t cachedCells = 0;
                for (const char wasCached : job->cached)
                    cachedCells += wasCached;

                Json done = Json::object();
                done.set("type", std::string("done"))
                    .set("id", job->id)
                    .set("cachedCells", cachedCells)
                    .set("report", report.toJson());
                std::lock_guard<std::mutex> lock(outMutex_);
                writeFrame(out, done);
            }

            {
                std::lock_guard<std::mutex> lock(pendingMutex_);
                --pendingCells_;
                if (pendingCells_ == 0)
                    idle_.notify_all();
            }
        });
    }
}

void
CampaignService::serve(std::istream &in, std::ostream &out)
{
    for (;;) {
        std::optional<Json> frame;
        try {
            frame = readFrame(in);
        } catch (const WireError &err) {
            // The stream is unframed garbage from here on; report
            // and stop rather than resynchronize heuristically.
            std::lock_guard<std::mutex> lock(outMutex_);
            writeFrame(out, errorFrame(Json(), err.what()));
            break;
        }
        if (!frame)
            break; // clean end-of-stream

        std::string type;
        try {
            type = frame->at("type").asString();
        } catch (const json::JsonError &err) {
            std::lock_guard<std::mutex> lock(outMutex_);
            writeFrame(out, errorFrame(Json(), err.what()));
            continue;
        }

        if (type == "ping") {
            Json pong = Json::object();
            pong.set("type", std::string("pong"));
            std::lock_guard<std::mutex> lock(outMutex_);
            writeFrame(out, pong);
        } else if (type == "stats") {
            Json stats = statsJson();
            std::lock_guard<std::mutex> lock(outMutex_);
            writeFrame(out, stats);
        } else if (type == "shutdown") {
            waitIdle();
            Json bye = Json::object();
            bye.set("type", std::string("bye"));
            std::lock_guard<std::mutex> lock(outMutex_);
            writeFrame(out, bye);
            break;
        } else if (type == "submit") {
            handleSubmit(*frame, out);
        } else {
            std::lock_guard<std::mutex> lock(outMutex_);
            writeFrame(out, errorFrame(
                                Json(), "unknown request type \"" +
                                            type + "\""));
        }
    }
    waitIdle();
}

} // namespace ctamem::svc
