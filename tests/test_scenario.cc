/**
 * @file
 * Tests for the declarative scenario layer: table name round
 * trips, config <-> JSON round trips over the Table-1 grid, golden
 * byte-stable output, and manifest-vs-programmatic campaign equality
 * for every checked-in scenario.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "attack/registry.hh"
#include "defense/registry.hh"
#include "defense/softtrr.hh"
#include "paging/arch.hh"
#include "sim/scenario.hh"
#include "sim/scenarios.hh"

namespace ctamem::sim {
namespace {

using defense::DefenseKind;
using json::Json;
using json::JsonError;

std::string
repoPath(const std::string &relative)
{
    return std::string(CTAMEM_SOURCE_DIR) + "/" + relative;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Registry, DefenseNamesRoundTrip)
{
    // 8 Table-1 defenses + SoftTRR + the TRR sampler, in enum order.
    ASSERT_EQ(defense::kDefenses.size(), 10u);
    for (std::size_t i = 0; i < defense::kDefenses.size(); ++i) {
        const defense::DefenseSpec &spec = defense::kDefenses[i];
        EXPECT_EQ(static_cast<std::size_t>(spec.kind), i);
        // token -> kind, display -> kind, kind -> token/display.
        EXPECT_EQ(defense::parseDefenseKind(spec.name), spec.kind)
            << spec.name;
        EXPECT_EQ(defense::parseDefenseKind(spec.display), spec.kind)
            << spec.display;
        EXPECT_STREQ(defense::defenseToken(spec.kind), spec.name);
        EXPECT_STREQ(defense::defenseName(spec.kind), spec.display);
    }
    EXPECT_EQ(defense::parseDefenseKind("no-such-defense"),
              std::nullopt);
}

TEST(Registry, AttackNamesRoundTrip)
{
    // 5 untimed attacks + uniform/sync_hammer/fuzz_hammer.
    ASSERT_EQ(attack::kAttacks.size(), 8u);
    for (std::size_t i = 0; i < attack::kAttacks.size(); ++i) {
        const attack::AttackSpec &spec = attack::kAttacks[i];
        EXPECT_EQ(static_cast<std::size_t>(spec.kind), i);
        EXPECT_EQ(attack::parseAttackKind(spec.name), spec.kind)
            << spec.name;
        EXPECT_EQ(attack::parseAttackKind(spec.display), spec.kind)
            << spec.display;
        EXPECT_STREQ(attack::attackToken(spec.kind), spec.name);
        EXPECT_STREQ(attack::attackName(spec.kind), spec.display);
    }
    EXPECT_EQ(attack::parseAttackKind("no-such-attack"),
              std::nullopt);
}

TEST(Scenario, MachineConfigRoundTripsOverTable1Grid)
{
    // Every Table-1 config, plus every tunable moved off its default.
    std::vector<MachineConfig> grid = scenarios::table1Configs();
    MachineConfig tweaked;
    tweaked.memBytes = 512 * MiB;
    tweaked.rowBytes = 64 * KiB;
    tweaked.banks = 4;
    tweaked.cellPeriod = 128;
    tweaked.pf = 5e-4;
    tweaked.seed = 99;
    tweaked.defense = DefenseKind::SoftTrr;
    tweaked.ptpBytes = 8 * MiB;
    tweaked.refreshBoostFactor = 8;
    tweaked.paraProbability = 0.01;
    tweaked.anvilThreshold = 123'456;
    tweaked.softTrrThreshold = 250'000;
    tweaked.softTrrTracked = 16;
    tweaked.ctaMultiLevelZones = true;
    tweaked.ctaScreenPageSize = true;
    tweaked.trrSamplers = 2;
    tweaked.trrWindow = 16;
    tweaked.fuzz.population = 7;
    tweaked.fuzz.generations = 3;
    tweaked.fuzz.windows = 5;
    tweaked.fuzz.seed = 42;
    tweaked.fuzz.timing.refsPerWindow = 1024;
    tweaked.fuzz.timing.actsPerInterval = 33;
    tweaked.fuzz.builder.arenaRows = 64;
    tweaked.fuzz.builder.maxEntries = 6;
    tweaked.fuzz.builder.maxPeriod = 12;
    tweaked.fuzz.builder.maxSlots = 20;
    tweaked.arch = paging::Isa::AArch64;
    tweaked.granule = 16 * KiB;
    // Every serialized field is off its default, so a knob the codec
    // drops (or a field left out of the comparison) fails below.
    const Json defaults = toJson(MachineConfig{});
    const Json moved = toJson(tweaked);
    for (const Json::Member &member : moved.members()) {
        if (member.key == "fuzz") {
            for (const Json::Member &sub : member.value.members())
                EXPECT_NE(sub.value.dump(),
                          defaults.at("fuzz").at(sub.key).dump())
                    << "fuzz." << sub.key;
        } else if (const Json *base = defaults.find(member.key)) {
            EXPECT_NE(member.value.dump(), base->dump()) << member.key;
        }
    }
    grid.push_back(tweaked);

    for (const MachineConfig &config : grid) {
        const MachineConfig back =
            machineConfigFromJson(toJson(config));
        EXPECT_TRUE(back == config)
            << defense::defenseName(config.defense);
        // And through actual text, not just the value tree.
        const MachineConfig reparsed =
            machineConfigFromJson(Json::parse(toJson(config).dump()));
        EXPECT_TRUE(reparsed == config);
    }
}

TEST(Scenario, CampaignCellRoundTrips)
{
    CampaignCell cell;
    cell.config.defense = DefenseKind::CtaRestricted;
    cell.config.pf = 1e-4;
    cell.attack = AttackKind::Drammer;
    cell.label = "drammer vs restricted CTA";
    const CampaignCell back = campaignCellFromJson(toJson(cell));
    EXPECT_TRUE(back == cell);
}

TEST(Scenario, ConfigOverlaysOntoBase)
{
    MachineConfig base;
    base.defense = DefenseKind::Cta;
    base.pf = 1e-4;
    const Json overlay = Json::parse(R"({"pf": 0.01, "seed": 7})");
    const MachineConfig merged =
        machineConfigFromJson(overlay, base);
    EXPECT_EQ(merged.defense, DefenseKind::Cta); // kept from base
    EXPECT_DOUBLE_EQ(merged.pf, 0.01);           // overridden
    EXPECT_EQ(merged.seed, 7u);                  // overridden
}

TEST(Scenario, UnknownKeysAreHardErrors)
{
    EXPECT_THROW(machineConfigFromJson(
                     Json::parse(R"({"memBytez": 1024})")),
                 JsonError);
    EXPECT_THROW(machineConfigFromJson(
                     Json::parse(R"({"fuzz": {"populaton": 8}})")),
                 JsonError);
    EXPECT_THROW(cellResultFromJson(
                     Json::parse(R"({"outcom": "blocked"})")),
                 JsonError);
    EXPECT_THROW(campaignCellFromJson(
                     Json::parse(R"({"atack": "drammer"})")),
                 JsonError);
    EXPECT_THROW(campaignFromJson(
                     Json::parse(R"({"defences": ["cta"]})")),
                 JsonError);
    // ...while comment-prefixed keys are fine anywhere.
    EXPECT_NO_THROW(machineConfigFromJson(
        Json::parse(R"({"comment": "x", "comment-2": "y"})")));
}

TEST(Scenario, ManifestSchemaViolationsThrow)
{
    // A grid needs attacks...
    EXPECT_THROW(
        campaignFromJson(Json::parse(R"({"defenses": ["cta"]})")),
        JsonError);
    // ...defenses and configs are exclusive...
    EXPECT_THROW(campaignFromJson(Json::parse(
                     R"({"defenses": ["cta"], "configs": [{}],
                         "attacks": ["drammer"]})")),
                 JsonError);
    // ...an empty manifest describes no cells...
    EXPECT_THROW(campaignFromJson(Json::parse("{}")), JsonError);
    // ...and unknown defense/attack names fail loudly.
    EXPECT_THROW(campaignFromJson(Json::parse(
                     R"({"defenses": ["ctaa"],
                         "attacks": ["drammer"]})")),
                 JsonError);
    EXPECT_THROW(campaignFromJson(Json::parse(
                     R"({"defenses": ["cta"],
                         "attacks": ["hammer2000"]})")),
                 JsonError);
    // Probabilities outside [0, 1] fail at parse time, naming the key.
    for (const char *key : {"pf", "paraProbability"}) {
        for (const double bad : {-0.5, 1.5}) {
            Json base = Json::object();
            base.set(key, bad);
            Json manifest = Json::parse(
                R"({"defenses": ["para"], "attacks": ["drammer"]})");
            manifest.set("base", std::move(base));
            try {
                campaignFromJson(manifest);
                ADD_FAILURE() << key << " = " << bad << " was accepted";
            } catch (const JsonError &err) {
                EXPECT_NE(std::string(err.what()).find(key),
                          std::string::npos);
            }
        }
    }
    // Sizes the DRAM geometry or ZONE_PTP cannot take fail at parse
    // time too, naming the key (memory is 256 MiB, rows 128 KiB).
    const std::pair<const char *, const char *> badSizes[] = {
        {"memBytes", R"({"memBytes": 300000000})"},
        {"banks", R"({"banks": 3})"},
        {"banks", R"({"banks": 0})"},
        {"rowBytes", R"({"rowBytes": 100000})"},
        {"rowBytes", R"({"rowBytes": 2048})"},
        // Fits the geometry and ZONE_PTP, but not 32-bit cell offsets.
        {"rowBytes", R"({"memBytes": 4294967296, "banks": 1,
                         "rowBytes": 1073741824,
                         "ptpBytes": 1073741824})"},
        {"ptpBytes", R"({"ptpBytes": 4194305})"},
        {"ptpBytes", R"({"ptpBytes": 65536})"},
        {"ptpBytes", R"({"ptpBytes": 268435456})"},
        {"ptpBytes", R"({"memBytes": 67108864, "ptpBytes": 67108864})"},
        // Bounds of the pattern builder's random draws.
        {"maxPeriod", R"({"fuzz": {"maxPeriod": 0}})"},
        {"maxSlots", R"({"fuzz": {"maxSlots": 0}})"},
        {"maxEntries", R"({"fuzz": {"maxEntries": 0}})"},
        {"actsPerInterval", R"({"fuzz": {"actsPerInterval": 0}})"},
        // A search with no REF, window, candidate or generation.
        {"refsPerWindow", R"({"fuzz": {"refsPerWindow": 0}})"},
        {"windows", R"({"fuzz": {"windows": 0}})"},
        {"population", R"({"fuzz": {"population": 0}})"},
        {"generations", R"({"fuzz": {"generations": 0}})"},
    };
    for (const auto &[key, base] : badSizes) {
        Json manifest = Json::parse(
            R"({"defenses": ["cta"], "attacks": ["drammer"]})");
        manifest.set("base", Json::parse(base));
        try {
            campaignFromJson(manifest);
            ADD_FAILURE() << base << " was accepted";
        } catch (const JsonError &err) {
            EXPECT_NE(std::string(err.what()).find(key),
                      std::string::npos)
                << err.what();
        }
    }
    // The checks run once every key is read: a ZONE_PTP too big for
    // the default memory is fine when a later key grows the memory.
    EXPECT_EQ(campaignFromJson(Json::parse(
                                   R"({"base": {"ptpBytes": 268435456,
                                                "memBytes": 1073741824},
                                       "defenses": ["cta"],
                                       "attacks": ["drammer"]})"))
                  .size(),
              1u);
}

TEST(Scenario, SchemaVersionGatesManifests)
{
    // The current version parses...
    Json manifest = Json::parse(
        R"({"defenses": ["cta"], "attacks": ["drammer"]})");
    manifest.set("schema_version", kScenarioSchemaVersion);
    EXPECT_EQ(campaignFromJson(manifest).size(), 1u);

    // ...and so does v3: v4 is a strict superset (the arch/granule
    // keys default to the historical x86-64 machine), so the v3
    // manifest corpus keeps its exact meaning.
    manifest.set("schema_version", std::uint64_t{3});
    EXPECT_EQ(campaignFromJson(manifest).size(), 1u);

    // ...any other version is a hard error naming the field, never a
    // best-effort parse of a stale manifest.
    for (const std::uint64_t bad :
         {std::uint64_t{0}, std::uint64_t{2},
          kScenarioSchemaVersion + 1}) {
        manifest.set("schema_version", bad);
        try {
            campaignFromJson(manifest);
            FAIL() << "schema_version " << bad << " was accepted";
        } catch (const JsonError &err) {
            EXPECT_NE(std::string(err.what()).find("schema_version"),
                      std::string::npos);
        }
    }
}

TEST(Scenario, CheckedInManifestsCarryTheSchemaVersion)
{
    for (const auto &entry : std::filesystem::directory_iterator(
             repoPath("scenarios"))) {
        if (entry.path().extension() != ".json")
            continue;
        const Json manifest =
            Json::parseFile(entry.path().string());
        const Json *version = manifest.find("schema_version");
        ASSERT_NE(version, nullptr) << entry.path();
        EXPECT_EQ(version->asU64(), kScenarioSchemaVersion)
            << entry.path();
    }
}

TEST(Scenario, ArchKeysRoundTripAndGateTheirValues)
{
    // Non-default backend: both keys serialize and round-trip.
    MachineConfig config;
    config.arch = paging::Isa::AArch64;
    config.granule = 16 * KiB;
    EXPECT_TRUE(machineConfigFromJson(toJson(config)) == config);

    // At the defaults they serialize to *nothing*: a v3 manifest and
    // its v4 twin produce identical canonical dumps, so svc cache
    // keys for unchanged machines survive the schema bump.
    const std::string dump = toJson(MachineConfig{}).dump();
    EXPECT_EQ(dump.find("arch"), std::string::npos);
    EXPECT_EQ(dump.find("granule"), std::string::npos);

    // Unknown ISA names and unsupported (isa, granule) pairs are
    // hard errors at parse time, not boot-time fatals.
    EXPECT_THROW(
        machineConfigFromJson(Json::parse(R"({"arch": "riscv"})")),
        JsonError);
    EXPECT_THROW(machineConfigFromJson(
                     Json::parse(R"({"granule": 16384})")),
                 JsonError); // x86-64 is 4 KiB only
    EXPECT_THROW(machineConfigFromJson(Json::parse(
                     R"({"arch": "aarch64", "granule": 8192})")),
                 JsonError);
    EXPECT_NO_THROW(machineConfigFromJson(Json::parse(
        R"({"arch": "aarch64", "granule": 65536})")));
}

TEST(Scenario, MachineConfigGoldenBytes)
{
    // The serialized default config, byte for byte.  If this fails
    // because MachineConfig deliberately changed, regenerate the
    // golden file from toJson(MachineConfig{}).dump().
    const std::string golden =
        readFile(repoPath("tests/golden/machine_config.json"));
    EXPECT_EQ(toJson(MachineConfig{}).dump() + "\n", golden);
}

/** A fixed 2-cell report: no attacks run, every field pinned. */
CampaignReport
twoCellReport()
{
    CampaignReport report;
    CellResult first;
    first.cell.config.defense = DefenseKind::None;
    first.cell.attack = AttackKind::ProjectZero;
    first.cell.label = "spray vs vanilla";
    first.result.outcome = attack::Outcome::Escalated;
    first.result.attackTime = 123456789;
    first.result.hammerPasses = 3;
    first.result.flipsInduced = 17;
    first.result.ptesCorrupted = 2;
    first.result.selfReferences = 1;
    first.result.detail = "golden fixture, not a real run";

    CellResult second;
    second.cell.config.defense = DefenseKind::Cta;
    second.cell.config.pf = 1e-4;
    second.cell.attack = AttackKind::Algorithm1;
    second.cell.label = "algorithm1 vs cta";
    second.result.outcome = attack::Outcome::Blocked;
    second.result.detail = "zone holds";
    second.anvilTriggered = false;

    report.cells.push_back(std::move(first));
    report.cells.push_back(std::move(second));
    report.wallSeconds = 0.0; // pinned: golden bytes can't drift
    return report;
}

TEST(Scenario, CampaignReportGoldenBytes)
{
    const std::string golden =
        readFile(repoPath("tests/golden/campaign_report.json"));
    EXPECT_EQ(twoCellReport().toJson().dump() + "\n", golden);
}

TEST(Scenario, ReportJsonRoundTripsItsCells)
{
    const Json j = twoCellReport().toJson();
    ASSERT_EQ(j.at("cells").size(), 2u);
    // The embedded cell configs parse back to the originals.
    const CampaignCell back = campaignCellFromJson(
        j.at("cells").items()[1].at("cell"));
    EXPECT_TRUE(back == twoCellReport().cells[1].cell);
}

TEST(Scenario, ManifestsMatchTheirProgrammaticTwins)
{
    // The Table-1 grid is the one preset with a manifest twin, since
    // the benches and perfbench build it in code.  Cell-for-cell
    // identical: same configs, same attacks, same labels, same order
    // — so the two runs produce the same report table.
    const Campaign loaded =
        Campaign::fromManifest(repoPath("scenarios/paper-default.json"));
    EXPECT_TRUE(loaded.cells() == scenarios::paperDefault().cells());
}

TEST(Scenario, AnnotatedExampleManifestLoads)
{
    const Campaign campaign = Campaign::fromManifest(
        repoPath("scenarios/example-annotated.json"));
    // 2 defenses x 2 attacks + 1 explicit cell.
    ASSERT_EQ(campaign.size(), 5u);
    const CampaignCell &last = campaign.cells().back();
    EXPECT_EQ(last.label, "drammer vs a hardened mobile stack");
    EXPECT_EQ(last.config.defense, DefenseKind::SoftTrr);
    EXPECT_EQ(last.config.softTrrThreshold, 250'000u);
    // base fields flowed into the explicit cell's config.
    EXPECT_EQ(last.config.seed, 1234u);
}

TEST(Scenario, ManifestCampaignRunsLikeProgrammatic)
{
    // The acceptance check end to end, on a small deterministic
    // slice: running the manifest-loaded campaign produces the same
    // outcomes as the programmatic preset.
    Campaign manifest = Campaign::fromManifest(
        repoPath("scenarios/paper-default.json"));
    Campaign programmatic = scenarios::paperDefault();
    manifest.truncate(2);
    programmatic.truncate(2);
    const CampaignReport a = manifest.run();
    const CampaignReport b = programmatic.run();
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_TRUE(a.cells[i].cell == b.cells[i].cell);
        EXPECT_EQ(a.cells[i].result.outcome,
                  b.cells[i].result.outcome);
        EXPECT_EQ(a.cells[i].result.flipsInduced,
                  b.cells[i].result.flipsInduced);
    }
}

TEST(Scenario, SoftTrrEntersSweepsPurelyByName)
{
    // SoftTRR is one row of the defense table (no machine.cc /
    // kernel.cc code): naming it in a manifest is enough to put it
    // in a Table-1-style sweep.
    const Campaign campaign =
        Campaign::fromManifest(repoPath("scenarios/hardened.json"));
    bool found = false;
    for (const CampaignCell &cell : campaign.cells())
        found |= cell.config.defense == DefenseKind::SoftTrr;
    EXPECT_TRUE(found);

    MachineConfig config;
    config.defense = DefenseKind::SoftTrr;
    Machine machine(config);
    EXPECT_NE(
        dynamic_cast<defense::SoftTrrObserver *>(machine.observer()),
        nullptr);
}

} // namespace
} // namespace ctamem::sim
