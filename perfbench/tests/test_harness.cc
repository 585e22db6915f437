/**
 * @file
 * Unit tests of the benchmark's own helpers: the percentile rule, seed
 * derivation and the svc request stream (both must be pure functions
 * of the seed), the deterministic-field digest, the CTA theorem check,
 * and the trace and result writers (their output must parse as JSON).
 *
 * Run with: python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <list>
#include <set>
#include <unordered_map>

#include "common/json.hh"
#include "common/rng.hh"
#include "harness.hh"
#include "sim/scenarios.hh"
#include "svc/server.hh"

namespace perfbench {
namespace {

using ctamem::json::Json;

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    // 200 operations are the fewest with kTailSupport samples beyond
    // p95, hence the workloads' 200-operation minimum.
    EXPECT_EQ(samplesBeyond(200, 95.0), kTailSupport);
    EXPECT_EQ(samplesBeyond(199, 95.0), 9u);
    EXPECT_EQ(samplesBeyond(20, 50.0), 10u);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(10, 100.0), 0u);
    for (std::size_t n = 1; n < 5000; n += 7)
        EXPECT_EQ(samplesBeyond(n, 95.0) >= kTailSupport, n >= 200) << n;
}

TEST(Percentile, NearestRank)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(values, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentile(values, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Seeds, DerivationIsAPureFunction)
{
    EXPECT_EQ(inputSeed(7, streams::kSvc, 3), inputSeed(7, streams::kSvc, 3));
    EXPECT_NE(inputSeed(7, streams::kSvc, 3), inputSeed(7, streams::kSvc, 4));
    EXPECT_NE(inputSeed(7, streams::kSvc, 3),
              inputSeed(7, streams::kFuzz, 3));
    EXPECT_NE(inputSeed(7, streams::kSvc, 3), inputSeed(8, streams::kSvc, 3));
}

TEST(Seeds, ReplicaZeroIsThePaperSeed)
{
    for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, ~0ULL})
        EXPECT_EQ(replicaSeed(seed, 0), ctamem::seeds::kMachine);
    EXPECT_NE(replicaSeed(1, 1), replicaSeed(2, 1));
    EXPECT_NE(replicaSeed(1, 1), replicaSeed(1, 2));
    EXPECT_EQ(replicaSeed(5, 9), replicaSeed(5, 9));
}

TEST(RequestStream, SameSeedSameRequests)
{
    RequestStream a(11);
    RequestStream b(11);
    for (int i = 0; i < 3000; ++i)
        ASSERT_EQ(a.next(), b.next()) << i;
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i)
        EXPECT_EQ(a.cells()[i], b.cells()[i]);

    RequestStream c(12);
    std::vector<std::size_t> sa;
    std::vector<std::size_t> sc;
    RequestStream a2(11);
    for (int i = 0; i < 200; ++i) {
        sa.push_back(a2.next());
        sc.push_back(c.next());
    }
    EXPECT_NE(sa, sc);
}

TEST(RequestStream, OneNewCellInTenOverGrowingSeeds)
{
    RequestStream stream(3);
    for (int i = 0; i < 1000; ++i) {
        const std::size_t before = stream.cells().size();
        const std::size_t cell = stream.next();
        if (i % RequestStream::kNewCellEvery == 0) {
            EXPECT_EQ(cell, before) << i;
            EXPECT_EQ(stream.cells().size(), before + 1);
        } else {
            EXPECT_LT(cell, before) << i;
        }
    }
    // 100 new cells: the whole 40-cell grid of seed 1234, then of two
    // derived seeds, each grid walked without repeats.
    const auto &cells = stream.cells();
    ASSERT_EQ(cells.size(), 100u);
    std::set<std::string> first;
    for (std::size_t i = 0; i < 40; ++i) {
        EXPECT_EQ(cells[i].config.seed, ctamem::seeds::kMachine);
        first.insert(goldenKey(cells[i]));
    }
    EXPECT_EQ(first.size(), 40u);
    EXPECT_NE(cells[40].config.seed, ctamem::seeds::kMachine);
    EXPECT_EQ(cells[40].config.seed, cells[79].config.seed);
    EXPECT_NE(cells[80].config.seed, cells[40].config.seed);
}

TEST(RequestStream, RepeatsStayInAMemoryTierSizedLru)
{
    // Replay the stream against an LRU of ctamemd's default memory
    // capacity: every repeat must find its cell there.
    const std::size_t capacity =
        ctamem::svc::ServiceConfig{}.memCacheEntries;
    ASSERT_GE(capacity, 2 * RequestStream::kRepeatWindow - 1);
    RequestStream stream(5);
    std::list<std::size_t> lru;
    std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where;
    for (int i = 0; i < 40000; ++i) {
        const std::size_t before = stream.cells().size();
        const std::size_t cell = stream.next();
        auto it = where.find(cell);
        if (cell < before) {
            ASSERT_NE(it, where.end()) << "request " << i;
            ASSERT_GE(cell + RequestStream::kRepeatWindow, before) << i;
            lru.erase(it->second);
        } else if (lru.size() == capacity) {
            where.erase(lru.back());
            lru.pop_back();
        }
        lru.push_front(cell);
        where[cell] = lru.begin();
    }
    EXPECT_EQ(stream.cells().size(), 4000u);
}

ctamem::sim::CellResult
sampleResult()
{
    ctamem::sim::CellResult result;
    result.cell = ctamem::sim::scenarios::paperDefault().cells().front();
    result.result.outcome = ctamem::attack::Outcome::Escalated;
    result.result.flipsInduced = 67;
    result.result.hammerPasses = 23;
    result.wallSeconds = 0.25;
    return result;
}

TEST(Digest, DeterministicFieldsIgnoreWallTime)
{
    ctamem::sim::CellResult a = sampleResult();
    ctamem::sim::CellResult b = a;
    b.wallSeconds = 17.0;
    EXPECT_EQ(deterministicFields(a), deterministicFields(b));
    b.result.flipsInduced = 68;
    EXPECT_NE(deterministicFields(a), deterministicFields(b));
}

TEST(Digest, OrderAndBoundarySensitive)
{
    Digest ab;
    ab.add("ab");
    ab.add("c");
    Digest abc;
    abc.add("a");
    abc.add("bc");
    Digest ba;
    ba.add("c");
    ba.add("ab");
    EXPECT_NE(ab.value(), abc.value());
    EXPECT_NE(ab.value(), ba.value());
    Digest again;
    again.add("ab");
    again.add("c");
    EXPECT_EQ(ab.hex(), again.hex());
    EXPECT_EQ(ab.hex().size(), 16u);
}

TEST(Golden, MatchesTheTable1Format)
{
    const std::string path = ::testing::TempDir() + "perfbench_golden.json";
    {
        std::ofstream out(path);
        out << R"({"_note": "x",
          "projectzero__none": {"value": 67.0, "unit": "ESCALATED",
                                "iterations": 23}})";
    }
    const auto golden = loadGolden(path);
    std::remove(path.c_str());
    ASSERT_EQ(golden.size(), 1u);
    ctamem::sim::CellResult result = sampleResult();
    EXPECT_EQ(goldenKey(result.cell), "projectzero__none");
    EXPECT_EQ(goldenMismatch(result, golden), "");
    result.anvilTriggered = true; // "ESCALATED*" no longer matches
    EXPECT_NE(goldenMismatch(result, golden), "");
}

/** A Table-1 CTA machine at @p seed, attacked by @p attack. */
struct AttackedCta
{
    ctamem::sim::Machine machine;
    std::vector<ctamem::dram::FlipEvent> flips;
    ctamem::attack::AttackResult result;

    AttackedCta(std::uint64_t seed, ctamem::sim::AttackKind attack)
        : machine(ctaConfig(seed))
    {
        machine.engine().setEventSink(&flips);
        result = machine.runAttack(attack);
        machine.engine().setEventSink(nullptr);
    }

    static ctamem::sim::MachineConfig
    ctaConfig(std::uint64_t seed)
    {
        for (ctamem::sim::MachineConfig config :
             ctamem::sim::scenarios::table1Configs()) {
            if (config.defense == ctamem::defense::DefenseKind::Cta) {
                config.seed = seed;
                return config;
            }
        }
        ADD_FAILURE() << "no CTA machine in the Table-1 grid";
        return {};
    }
};

TEST(TheoremCheck, BreachNeedsAFlipTheTheoremLeavesOpen)
{
    // At this seed the re-mapping bypass escalates on single-level
    // CTA: a '1'->'0' flip moves a PD entry onto a PD.
    AttackedCta cell(6319246465882916430ULL,
                     ctamem::sim::AttackKind::RemapBypass);
    ASSERT_EQ(cell.result.outcome, ctamem::attack::Outcome::Escalated);
    EXPECT_EQ(theoremGap(cell.machine, cell.result.outcome, cell.flips),
              "");
    // With only '1'->'0' leaf flips the theorem rules the breach out.
    std::vector<ctamem::dram::FlipEvent> leafDown;
    for (const ctamem::dram::FlipEvent &flip : cell.flips) {
        const ctamem::Pfn pfn = ctamem::addrToPfn(flip.addr);
        if (flip.dir == ctamem::dram::FlipDirection::OneToZero &&
            cell.machine.kernel().isPageTableFrame(pfn) &&
            cell.machine.kernel().tableLevel(pfn) == 1)
            leafDown.push_back(flip);
    }
    EXPECT_FALSE(leafDown.empty());
    EXPECT_NE(theoremGap(cell.machine, cell.result.outcome, leafDown), "");
    EXPECT_NE(theoremGap(cell.machine, cell.result.outcome, {}), "");
}

TEST(TheoremCheck, PaperDefaultMachineHolds)
{
    AttackedCta cell(ctamem::seeds::kMachine,
                     ctamem::sim::AttackKind::RemapBypass);
    EXPECT_EQ(cell.result.outcome,
              ctamem::attack::Outcome::KernelCorrupted);
    EXPECT_EQ(theoremGap(cell.machine, cell.result.outcome, cell.flips),
              "");
}

TEST(Trace, ChromeTraceParsesAsJson)
{
    Tracer tracer;
    const Clock::time_point t0 = Clock::now();
    tracer.record("attack.run.\"quoted\\name\"", "attack", t0,
                  t0 + std::chrono::microseconds(1500));
    tracer.recordAggregate("paging.walk", "paging", t0,
                           t0 + std::chrono::milliseconds(2), 1000);
    const Json doc = Json::parse(tracer.chromeTrace());
    const auto &events = doc.at("traceEvents").items();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].at("name").asString(), "attack.run.\"quoted\\name\"");
    EXPECT_EQ(events[0].at("ph").asString(), "X");
    EXPECT_NEAR(events[0].at("dur").asDouble(), 1500.0, 1e-6);
    EXPECT_EQ(events[1].at("args").at("calls").asU64(), 1000u);
    EXPECT_NEAR(tracer.samples("paging.walk").front(), 2e-6, 1e-15);
    EXPECT_TRUE(tracer.has("paging.walk"));
    EXPECT_FALSE(tracer.has("paging.translate"));

    const std::string path = ::testing::TempDir() + "perfbench_trace.json";
    ASSERT_TRUE(tracer.writeChromeTrace(path));
    EXPECT_EQ(Json::parseFile(path).at("traceEvents").size(), 2u);
    std::remove(path.c_str());
}

TEST(Result, LineParsesAndKeepsEveryDigit)
{
    MetricSet metrics;
    metrics.set("ops_per_s", 123.45678901234567, "1/s");
    metrics.set("setup_s", 0.0027139, "s");
    metrics.set("ops_per_s", 0.1 + 0.2, "1/s"); // replaces, keeps order
    const Json doc = Json::parse(resultLine(true, 10, 0, metrics));
    EXPECT_TRUE(doc.at("correct").asBool());
    EXPECT_EQ(doc.at("attempted").asU64(), 10u);
    EXPECT_EQ(doc.at("failed").asU64(), 0u);
    const Json &m = doc.at("metrics");
    EXPECT_EQ(m.members().front().key, "ops_per_s");
    EXPECT_EQ(m.at("ops_per_s").at("value").asDouble(), 0.1 + 0.2);
    EXPECT_EQ(m.at("setup_s").at("unit").asString(), "s");
}

} // namespace
} // namespace perfbench
