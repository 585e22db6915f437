/**
 * @file
 * Tests for the campaign service stack: wire framing, the two-tier
 * content-addressed result cache, machine snapshot/restore (byte
 * round-trips, cold-boot equivalence, corruption rejection), and the
 * CampaignService protocol loop — streaming, backpressure, and the
 * bit-identical-resubmission guarantee over every checked-in
 * manifest.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <vector>

#include "attack/result.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "defense/defense.hh"
#include "sim/scenario.hh"
#include "svc/cache.hh"
#include "svc/server.hh"
#include "svc/snapshot.hh"
#include "svc/wire.hh"

namespace ctamem::svc {
namespace {

using json::Json;
using sim::CampaignCell;
using sim::MachineConfig;

std::string
repoPath(const std::string &relative)
{
    return std::string(CTAMEM_SOURCE_DIR) + "/" + relative;
}

/** A scratch directory removed on scope exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("ctamem-test-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---------------------------------------------------------------
// Wire framing

TEST(Wire, FramesRoundTrip)
{
    Json message = Json::object();
    message.set("type", std::string("submit"))
        .set("id", std::uint64_t{7})
        .set("nested", Json::array());

    std::stringstream stream;
    writeFrame(stream, message);
    writeFrame(stream, Json::object().set("type",
                                          std::string("ping")));

    const auto first = readFrame(stream);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->dump(), message.dump());
    const auto second = readFrame(stream);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->at("type").asString(), "ping");
    EXPECT_FALSE(readFrame(stream).has_value()); // clean EOF
}

TEST(Wire, CleanEofBetweenFramesIsNotAnError)
{
    std::stringstream empty;
    EXPECT_FALSE(readFrame(empty).has_value());
}

TEST(Wire, TruncatedPrefixThrows)
{
    std::stringstream stream;
    stream.write("\x05\x00", 2);
    EXPECT_THROW(readFrame(stream), WireError);
}

TEST(Wire, TruncatedPayloadThrows)
{
    std::stringstream stream;
    writeFrame(stream, Json::object().set("k", std::string("v")));
    std::string bytes = stream.str();
    bytes.resize(bytes.size() - 3); // cut into the payload
    std::stringstream cut(bytes);
    EXPECT_THROW(readFrame(cut), WireError);
}

TEST(Wire, OversizedLengthPrefixThrows)
{
    std::stringstream stream;
    stream.write("\xff\xff\xff\xff", 4);
    EXPECT_THROW(readFrame(stream), WireError);
}

TEST(Wire, NonJsonPayloadThrows)
{
    std::stringstream stream;
    stream.write("\x03\x00\x00\x00!!!", 7);
    EXPECT_THROW(readFrame(stream), WireError);
}

// ---------------------------------------------------------------
// Content-addressed cache

TEST(Cache, KeysSeparateCellsAndTrackSchema)
{
    CampaignCell cell;
    cell.label = "a";
    const std::string base = cellCacheKey(cell);
    EXPECT_EQ(cellCacheKey(cell), base); // stable

    CampaignCell other = cell;
    other.config.seed += 1;
    EXPECT_NE(cellCacheKey(other), base);

    other = cell;
    other.attack = sim::AttackKind::Drammer;
    EXPECT_NE(cellCacheKey(other), base);

    other = cell;
    other.label = "b";
    EXPECT_NE(cellCacheKey(other), base);

    // The literal key of a default cell: the canonical dump (every
    // attack and defense token included) chained with
    // kResultCacheEpoch.  A changed token or epoch orphans every
    // on-disk cache, so it must show up here first.
    EXPECT_EQ(cellCacheKey(CampaignCell{MachineConfig{},
                                        sim::AttackKind::ProjectZero,
                                        "key-pin"}),
              "344b83ca78e5a62f");
}

TEST(Cache, MemoryTierHitsAndMisses)
{
    ResultCache cache(4);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.insert("k1", Json::object().set("x", std::uint64_t{1}));
    const auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->at("x").asU64(), 1u);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.memHits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.memEntries, 1u);
}

TEST(Cache, LruEvictsOldestAtCapacity)
{
    ResultCache cache(2);
    cache.insert("a", Json::object());
    cache.insert("b", Json::object());
    ASSERT_TRUE(cache.lookup("a").has_value()); // "a" now most recent
    cache.insert("c", Json::object());          // evicts "b"

    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.memEntries, 2u);
}

TEST(Cache, DiskTierSurvivesTheProcessCache)
{
    TempDir dir("cache");
    {
        ResultCache cache(4, dir.path());
        cache.insert("k", Json::object().set("v", std::uint64_t{42}));
    }
    ResultCache fresh(4, dir.path());
    const auto hit = fresh.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->at("v").asU64(), 42u);

    const CacheStats stats = fresh.stats();
    EXPECT_EQ(stats.diskHits, 1u);
    EXPECT_EQ(stats.memEntries, 1u); // promoted into the LRU

    // Second lookup is served from memory.
    ASSERT_TRUE(fresh.lookup("k").has_value());
    EXPECT_EQ(fresh.stats().memHits, 1u);
}

// ---------------------------------------------------------------
// Snapshot/restore

MachineConfig
ctaScreeningConfig()
{
    MachineConfig config;
    config.defense = defense::DefenseKind::Cta;
    config.ctaMultiLevelZones = true;
    config.ctaScreenPageSize = true;
    return config;
}

TEST(Snapshot, BlobRoundTripIsByteIdentical)
{
    sim::Machine machine(ctaScreeningConfig());
    const MachineSnapshot snapshot = captureSnapshot(machine);
    const std::vector<std::uint8_t> blob = serialize(snapshot);
    const MachineSnapshot parsed = deserialize(blob);
    EXPECT_EQ(serialize(parsed), blob);

    EXPECT_EQ(parsed.config, snapshot.config);
}

TEST(Snapshot, CaptureRefusesAMachineWithProcesses)
{
    // The blob carries only the config, so a machine past its
    // post-boot state cannot be captured: not with a process, and not
    // after a hammer pass or a REF tick, which restore would silently
    // undo.
    sim::Machine machine(ctaScreeningConfig());
    machine.kernel().createProcess("victim");
    EXPECT_THROW(captureSnapshot(machine), FatalError);

    sim::Machine hammered(ctaScreeningConfig());
    hammered.engine().hammerDoubleSided(0, 9);
    EXPECT_THROW(captureSnapshot(hammered), FatalError);

    sim::Machine ticked(ctaScreeningConfig());
    dram::HammerResult result;
    ticked.engine().refTick(0, result);
    EXPECT_THROW(captureSnapshot(ticked), FatalError);
}

TEST(Snapshot, RestoredMachineSnapshotsIdentically)
{
    // capture(restore(capture(m))) == capture(m), and the restored
    // machine's store holds the same frames, byte for byte, as the
    // original's: the config alone rebuilds the booted DRAM.
    sim::Machine machine(ctaScreeningConfig());
    const std::vector<std::uint8_t> blob =
        serialize(captureSnapshot(machine));
    auto restored = restoreMachine(deserialize(blob));
    EXPECT_EQ(serialize(captureSnapshot(*restored)), blob);

    const dram::SparseStore &original = machine.dram().store();
    const dram::SparseStore &copy = restored->dram().store();
    std::vector<Pfn> pfns = original.touchedFrames();
    std::vector<Pfn> copyPfns = copy.touchedFrames();
    std::sort(pfns.begin(), pfns.end());
    std::sort(copyPfns.begin(), copyPfns.end());
    ASSERT_FALSE(pfns.empty());
    ASSERT_EQ(copyPfns, pfns);
    std::vector<std::uint8_t> want(pageSize);
    std::vector<std::uint8_t> got(pageSize);
    for (const Pfn pfn : pfns) {
        original.read(pfnToAddr(pfn), want.data(), pageSize);
        copy.read(pfnToAddr(pfn), got.data(), pageSize);
        EXPECT_EQ(got, want) << "pfn " << pfn;
    }
}

TEST(Snapshot, RestoredMachineAttackMatchesColdBoot)
{
    // The attack on a restored machine must be bit-identical to the
    // attack on a cold boot — across policy-only and RNG-observer
    // defenses.
    for (const defense::DefenseKind kind :
         {defense::DefenseKind::None, defense::DefenseKind::Cta,
          defense::DefenseKind::Para}) {
        MachineConfig config = ctaScreeningConfig();
        config.defense = kind;

        sim::Machine cold(config);
        const std::vector<std::uint8_t> blob =
            serialize(captureSnapshot(cold));
        const attack::AttackResult coldResult =
            cold.runAttack(sim::AttackKind::ProjectZero);

        auto warm = restoreMachine(deserialize(blob));
        const attack::AttackResult warmResult =
            warm->runAttack(sim::AttackKind::ProjectZero);

        EXPECT_EQ(warmResult.outcome, coldResult.outcome)
            << defense::defenseName(kind);
        EXPECT_EQ(warmResult.detail, coldResult.detail);
        EXPECT_EQ(warmResult.attackTime, coldResult.attackTime);
        EXPECT_EQ(warmResult.hammerPasses, coldResult.hammerPasses);
        EXPECT_EQ(warmResult.flipsInduced, coldResult.flipsInduced);
        EXPECT_EQ(warmResult.ptesCorrupted, coldResult.ptesCorrupted);
        EXPECT_EQ(warmResult.selfReferences,
                  coldResult.selfReferences);
    }
}

TEST(Snapshot, CorruptedBlobsAreRejected)
{
    sim::Machine machine(ctaScreeningConfig());
    const std::vector<std::uint8_t> blob =
        serialize(captureSnapshot(machine));

    // Flipping any byte breaks the checksum; probe a spread of
    // offsets including the magic, the header and the checksum
    // itself.
    for (const std::size_t offset :
         {std::size_t{0}, std::size_t{9}, std::size_t{40},
          blob.size() / 2, blob.size() - 1}) {
        std::vector<std::uint8_t> corrupt = blob;
        corrupt[offset] ^= 0x01;
        EXPECT_THROW(deserialize(corrupt), SnapshotError)
            << "offset " << offset;
    }
}

TEST(Snapshot, TruncatedBlobsAreRejected)
{
    sim::Machine machine(ctaScreeningConfig());
    const std::vector<std::uint8_t> blob =
        serialize(captureSnapshot(machine));

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{19},
          blob.size() / 2, blob.size() - 1}) {
        std::vector<std::uint8_t> cut(blob.begin(),
                                      blob.begin() + keep);
        EXPECT_THROW(deserialize(cut), SnapshotError)
            << "kept " << keep;
    }
}

TEST(Snapshot, UnknownVersionIsRejected)
{
    sim::Machine machine(ctaScreeningConfig());
    std::vector<std::uint8_t> blob =
        serialize(captureSnapshot(machine));
    blob[8] += 1; // bump the format version past this build's
    // Re-stamp the checksum so only the version check can object.
    std::uint64_t checksum = hashBytes(blob.data(), blob.size() - 8);
    for (int i = 0; i < 8; ++i)
        blob[blob.size() - 8 + i] = (checksum >> (8 * i)) & 0xff;
    EXPECT_THROW(deserialize(blob), SnapshotError);
}

// ---------------------------------------------------------------
// CampaignService protocol

std::vector<Json>
roundTrip(CampaignService &service, const std::vector<Json> &requests)
{
    std::stringstream in;
    for (const Json &request : requests)
        writeFrame(in, request);
    std::stringstream out;
    service.serve(in, out);
    std::vector<Json> responses;
    while (auto frame = readFrame(out))
        responses.push_back(std::move(*frame));
    return responses;
}

Json
submitRequest(const Json &manifest, std::uint64_t id)
{
    Json request = Json::object();
    request.set("type", std::string("submit"))
        .set("id", id)
        .set("manifest", manifest);
    return request;
}

/** The smallest checked-in manifest, truncated via base tweaks. */
Json
tinyManifest(std::uint64_t seed = 1)
{
    Json base = Json::object();
    base.set("seed", seed);
    Json manifest = Json::object();
    manifest.set("schema_version", sim::kScenarioSchemaVersion)
        .set("base", std::move(base))
        .set("defenses",
             Json::array().push(std::string("none")).push(
                 std::string("cta")))
        .set("attacks",
             Json::array().push(std::string("projectzero")));
    return manifest;
}

ServiceConfig
testServiceConfig(const std::string &cacheDir = {})
{
    ServiceConfig config;
    config.workers = 2;
    config.cacheDir = cacheDir;
    return config;
}

TEST(Service, SnapshotBootedCellsMatchCampaignRun)
{
    // Two attacks on each config, every cell a cache miss that boots
    // its machine cold.  Every cell must equal the Campaign::run cell
    // on every field but wallSeconds, and the stats frame must report
    // no snapshot captured or restored.
    const sim::Campaign campaign = sim::campaignFromJson(Json::parse(R"({
        "defenses": ["none", "cta"],
        "attacks": ["projectzero", "drammer"]})"));
    ASSERT_EQ(campaign.size(), 4u);
    const sim::CampaignReport expected = campaign.run();

    CampaignService service(testServiceConfig());
    for (std::size_t i = 0; i < campaign.size(); ++i) {
        const CampaignService::CellOutcome outcome =
            service.runCellCached(campaign.cells()[i]);
        const sim::CellResult &got = outcome.result;
        const sim::CellResult &want = expected.cells[i];
        EXPECT_FALSE(outcome.cached);
        EXPECT_TRUE(got.cell == want.cell) << i;
        EXPECT_EQ(got.result.outcome, want.result.outcome) << i;
        EXPECT_EQ(got.result.attackTime, want.result.attackTime) << i;
        EXPECT_EQ(got.result.hammerPasses, want.result.hammerPasses);
        EXPECT_EQ(got.result.flipsInduced, want.result.flipsInduced);
        EXPECT_EQ(got.result.ptesCorrupted, want.result.ptesCorrupted);
        EXPECT_EQ(got.result.selfReferences,
                  want.result.selfReferences);
        EXPECT_EQ(got.result.detail, want.result.detail) << i;
        EXPECT_EQ(got.anvilTriggered, want.anvilTriggered) << i;
        EXPECT_GT(got.wallSeconds, 0.0) << i;
    }
    const Json stats = service.statsJson();
    EXPECT_EQ(stats.at("cellsExecuted").asU64(), 4u);
    EXPECT_EQ(stats.at("snapshotCaptures").asU64(), 0u);
    EXPECT_EQ(stats.at("snapshotRestores").asU64(), 0u);
}

TEST(Service, PingStatsAndUnknownTypes)
{
    CampaignService service(testServiceConfig());
    Json ping = Json::object();
    ping.set("type", std::string("ping"));
    Json stats = Json::object();
    stats.set("type", std::string("stats"));
    Json bogus = Json::object();
    bogus.set("type", std::string("frobnicate"));

    const auto responses = roundTrip(service, {ping, stats, bogus});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].at("type").asString(), "pong");
    EXPECT_EQ(responses[1].at("type").asString(), "stats");
    EXPECT_EQ(responses[1].at("schemaVersion").asU64(),
              sim::kScenarioSchemaVersion);
    // Every key perfbench's svc-session reads, so dropping one fails
    // here rather than in the benchmark.
    const Json &reply = responses[1];
    EXPECT_NO_THROW(reply.at("cellsExecuted").asDouble());
    EXPECT_NO_THROW(reply.at("resultCache").at("hitRate").asDouble());
    EXPECT_NO_THROW(reply.at("resultCache").at("memHits").asDouble());
    EXPECT_NO_THROW(reply.at("resultCache").at("diskHits").asDouble());
    EXPECT_NO_THROW(reply.at("snapshotCaptures").asDouble());
    EXPECT_NO_THROW(reply.at("snapshotRestores").asDouble());
    EXPECT_NO_THROW(reply.at("profileCache").at("hits").asDouble());
    EXPECT_NO_THROW(reply.at("profileCache").at("misses").asDouble());
    EXPECT_EQ(responses[2].at("type").asString(), "error");
}

TEST(Service, SubmissionStreamsCellsThenReport)
{
    CampaignService service(testServiceConfig());
    const auto responses =
        roundTrip(service, {submitRequest(tinyManifest(), 5)});

    ASSERT_GE(responses.size(), 2u);
    EXPECT_EQ(responses.front().at("type").asString(), "accepted");
    const std::uint64_t cells =
        responses.front().at("cells").asU64();
    EXPECT_EQ(cells, 2u);
    EXPECT_EQ(responses.back().at("type").asString(), "done");
    EXPECT_EQ(responses.back().at("id").asU64(), 5u);

    // Every index streams exactly once, in some completion order.
    std::vector<bool> seen(cells, false);
    for (std::size_t i = 1; i + 1 < responses.size(); ++i) {
        ASSERT_EQ(responses[i].at("type").asString(), "cell");
        seen[responses[i].at("index").asU64()] = true;
    }
    for (std::size_t i = 0; i < cells; ++i)
        EXPECT_TRUE(seen[i]) << "cell " << i << " never streamed";

    // The report is manifest-ordered regardless of completion order.
    const Json &report = responses.back().at("report");
    ASSERT_EQ(report.at("cells").size(), cells);
    EXPECT_EQ(report.at("cells")
                  .items()[0]
                  .at("cell")
                  .at("config")
                  .at("defense")
                  .asString(),
              "none");
}

TEST(Service, ResubmissionIsFullyCachedAndBitIdentical)
{
    CampaignService service(testServiceConfig());
    const Json request = submitRequest(tinyManifest(), 1);
    const auto cold = roundTrip(service, {request});
    const auto cached = roundTrip(service, {request});

    ASSERT_EQ(cold.back().at("type").asString(), "done");
    ASSERT_EQ(cached.back().at("type").asString(), "done");
    EXPECT_EQ(cached.back().at("cachedCells").asU64(), 2u);

    // Bit-identical: the replayed report's cell table serializes to
    // the same bytes as the cold run's (wallSeconds of the *report*
    // wrapper differs; the cells and their stored timings do not).
    EXPECT_EQ(cold.back().at("report").at("cells").dump(),
              cached.back().at("report").at("cells").dump());
    EXPECT_EQ(cold.back().at("report").at("cellSecondsTotal").dump(),
              cached.back()
                  .at("report")
                  .at("cellSecondsTotal")
                  .dump());

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(counters.cellsExecuted, 2u);
    EXPECT_EQ(counters.cellsCached, 2u);
}

TEST(Service, DiskCacheServesAFreshService)
{
    TempDir dir("svc-disk");
    const Json request = submitRequest(tinyManifest(2), 1);

    std::string coldCells;
    {
        CampaignService service(testServiceConfig(dir.path()));
        const auto cold = roundTrip(service, {request});
        coldCells = cold.back().at("report").at("cells").dump();
    }

    // A brand-new service (empty memory tier) replays from disk.
    CampaignService fresh(testServiceConfig(dir.path()));
    const auto cached = roundTrip(fresh, {request});
    EXPECT_EQ(cached.back().at("cachedCells").asU64(), 2u);
    EXPECT_EQ(cached.back().at("report").at("cells").dump(),
              coldCells);
    EXPECT_EQ(fresh.counters().cellsExecuted, 0u);
}

TEST(Service, OverCapacitySubmissionsAreRejected)
{
    ServiceConfig config = testServiceConfig();
    config.queueCapacity = 1; // the 2-cell manifest cannot fit
    CampaignService service(config);

    const auto responses =
        roundTrip(service, {submitRequest(tinyManifest(), 9)});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].at("type").asString(), "rejected");
    EXPECT_EQ(responses[0].at("reason").asString(), "queue-full");
    EXPECT_EQ(responses[0].at("id").asU64(), 9u);
    EXPECT_EQ(service.counters().jobsRejected, 1u);
}

TEST(Service, BadManifestsGetErrorFrames)
{
    CampaignService service(testServiceConfig());

    Json badVersion = tinyManifest();
    badVersion.set("schema_version",
                   sim::kScenarioSchemaVersion + 1);
    Json noManifest = Json::object();
    noManifest.set("type", std::string("submit"))
        .set("id", std::uint64_t{3});
    Json badProbability = tinyManifest();
    Json base = badProbability.at("base");
    base.set("pf", 7.5);
    badProbability.set("base", std::move(base));
    Json badMemory = tinyManifest();
    base = badMemory.at("base");
    base.set("memBytes", std::uint64_t{300000000});
    badMemory.set("base", std::move(base));

    const auto responses = roundTrip(
        service, {submitRequest(badVersion, 2), noManifest,
                  submitRequest(badProbability, 4),
                  submitRequest(badMemory, 6)});
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[0].at("type").asString(), "error");
    EXPECT_NE(responses[0].at("message").asString().find(
                  "schema_version"),
              std::string::npos);
    EXPECT_EQ(responses[1].at("type").asString(), "error");
    EXPECT_EQ(responses[2].at("type").asString(), "error");
    EXPECT_NE(responses[2].at("message").asString().find("pf"),
              std::string::npos);
    EXPECT_EQ(responses[3].at("type").asString(), "error");
    EXPECT_NE(responses[3].at("message").asString().find("memBytes"),
              std::string::npos);
    // Rejected before anything booted.
    EXPECT_EQ(service.counters().cellsExecuted, 0u);
}

TEST(Service, FailingCellGetsAnErrorFrameAndServingContinues)
{
    // 128 MiB of ZONE_PTP passes the parse-time size checks, but the
    // anti-cell stripes leave the upper half of a 256 MiB module short
    // of that many true-cell bytes: the cell's boot throws.
    CampaignService service(testServiceConfig());
    const Json unbootable = Json::parse(R"({
        "base": {"ptpBytes": 134217728},
        "defenses": ["cta"],
        "attacks": ["projectzero"]})");
    Json shutdown = Json::object();
    shutdown.set("type", std::string("shutdown"));

    const auto responses = roundTrip(
        service, {submitRequest(unbootable, 1),
                  submitRequest(tinyManifest(), 2), shutdown});
    std::size_t errors = 0;
    std::size_t done = 0;
    for (const Json &frame : responses) {
        const std::string type = frame.at("type").asString();
        if (type == "error") {
            ++errors;
            EXPECT_EQ(frame.at("id").asU64(), 1u);
            EXPECT_EQ(frame.at("index").asU64(), 0u);
            EXPECT_NE(frame.at("message").asString().find("ZONE_PTP"),
                      std::string::npos);
        } else if (type == "done") {
            ++done;
            EXPECT_EQ(frame.at("id").asU64(), 2u);
        }
    }
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(done, 1u);
    ASSERT_FALSE(responses.empty());
    EXPECT_EQ(responses.back().at("type").asString(), "bye");
}

TEST(Service, ShutdownAnswersByeAndStops)
{
    CampaignService service(testServiceConfig());
    Json shutdown = Json::object();
    shutdown.set("type", std::string("shutdown"));
    Json ping = Json::object();
    ping.set("type", std::string("ping"));

    // The ping after shutdown is never read.
    const auto responses = roundTrip(service, {shutdown, ping});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].at("type").asString(), "bye");
}

/**
 * The deterministic fields of one report cell, in the order
 * tests/golden/scenario_cells.json lists them (wallSeconds is host
 * time and stays out).
 */
Json
pinnedFields(const Json &cell)
{
    Json row = Json::object();
    row.set("label", cell.at("cell").at("label"))
        .set("attack", cell.at("cell").at("attack"));
    for (const char *key :
         {"outcome", "detail", "attackTime", "hammerPasses",
          "flipsInduced", "ptesCorrupted", "selfReferences",
          "anvilTriggered"})
        row.set(key, cell.at(key));
    return row;
}

TEST(Service, CheckedInManifestsReplayBitIdentically)
{
    // Resubmitting any checked-in manifest yields a report whose
    // cells are byte-identical to the cold run's, and the cold run
    // matches the pinned golden on every deterministic field
    // (regenerate with scripts/scenario_cells.py only for a
    // deliberate change of simulated results).
    const Json golden = Json::parseFile(
        repoPath("tests/golden/scenario_cells.json"));
    CampaignService service(testServiceConfig());
    std::size_t manifests = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             repoPath("scenarios"))) {
        if (entry.path().extension() != ".json")
            continue;
        ++manifests;
        const Json manifest =
            Json::parseFile(entry.path().string());
        const Json request = submitRequest(manifest, manifests);

        const auto cold = roundTrip(service, {request});
        const auto warm = roundTrip(service, {request});
        ASSERT_EQ(cold.back().at("type").asString(), "done")
            << entry.path();
        ASSERT_EQ(warm.back().at("type").asString(), "done")
            << entry.path();

        const std::uint64_t cells =
            cold.front().at("cells").asU64();
        EXPECT_EQ(warm.back().at("cachedCells").asU64(), cells)
            << entry.path();
        EXPECT_EQ(cold.back().at("report").at("cells").dump(),
                  warm.back().at("report").at("cells").dump())
            << entry.path();

        const Json *pinned =
            golden.find(entry.path().filename().string());
        ASSERT_NE(pinned, nullptr) << entry.path() << " has no golden";
        const auto &got = cold.back().at("report").at("cells").items();
        ASSERT_EQ(got.size(), pinned->size()) << entry.path();
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(pinnedFields(got[i]).dump(),
                      pinned->items()[i].dump())
                << entry.path() << " cell " << i;
        }
    }
    EXPECT_GE(manifests, 4u);
    EXPECT_EQ(manifests, golden.size());
}

} // namespace
} // namespace ctamem::svc
