/**
 * @file
 * Tests for the mitigation observers (PARA, refresh boosting, ANVIL)
 * and their interaction with the hammer engine and attacks.
 */

#include <gtest/gtest.h>

#include "attack/projectzero.hh"
#include "defense/observers.hh"
#include "defense/softtrr.hh"
#include "sim/machine.hh"

namespace ctamem::defense {
namespace {

TEST(Para, SuppressesEssentiallyEveryPass)
{
    ParaObserver para(0.001);
    unsigned suppressed = 0;
    for (int i = 0; i < 100; ++i) {
        if (para.onHammer({0, 10, 1'300'000}))
            ++suppressed;
    }
    // 1 - (1 - 0.001)^1.3e6 is indistinguishable from 1.
    EXPECT_EQ(suppressed, 100u);
    EXPECT_EQ(para.mitigations(), 100u);
}

TEST(Para, TinyProbabilityLeaks)
{
    // With p ~ 1e-7, a meaningful share of passes slip through — the
    // probabilistic guarantee depends on p.
    ParaObserver para(1e-7);
    unsigned leaked = 0;
    for (int i = 0; i < 200; ++i) {
        if (!para.onHammer({0, 10, 1'300'000}))
            ++leaked;
    }
    EXPECT_GT(leaked, 100u);
}

TEST(RefreshBoost, SuppressesAllButOneInK)
{
    RefreshBoostObserver boost(4);
    unsigned leaked = 0;
    const unsigned passes = 4000;
    for (unsigned i = 0; i < passes; ++i) {
        if (!boost.onHammer({0, 5, 1'300'000}))
            ++leaked;
    }
    // ~1/4 of passes still land: no guarantee, just slowdown.
    EXPECT_NEAR(leaked, passes / 4, passes / 16);
}

TEST(Anvil, DetectsSustainedHammering)
{
    AnvilObserver anvil(2'000'000, 8);
    bool detected = false;
    for (int i = 0; i < 4 && !detected; ++i)
        detected = anvil.onHammer({0, 7, 1'300'000});
    EXPECT_TRUE(detected);
    EXPECT_TRUE(anvil.triggered());
    EXPECT_GT(anvil.detections(), 0u);
}

TEST(Anvil, WindowDecayForgetsSlowActivity)
{
    AnvilObserver anvil(2'000'000, 2);
    // Alternate rows so each row's count resets before tripping.
    bool detected = false;
    for (int i = 0; i < 16; ++i)
        detected |= anvil.onHammer(
            {0, static_cast<std::uint64_t>(100 + (i % 2) * 50),
             900'000});
    EXPECT_FALSE(detected);
}

TEST(Anvil, BenignThrashingFalsePositives)
{
    AnvilObserver anvil(1'000'000, 16);
    bool fp = false;
    for (int i = 0; i < 8; ++i)
        fp |= anvil.noteBenignActivity(0, 3, 400'000);
    EXPECT_TRUE(fp);
    EXPECT_GT(anvil.falsePositives(), 0u);
    EXPECT_FALSE(anvil.triggered()); // not an attack detection
}

TEST(SoftTrr, RefreshesRowsPastTheThreshold)
{
    SoftTrrObserver trr(1'000'000, 8);
    // The first full-strength pass crosses the 1M threshold: the
    // counter trips and the pass is mitigated.
    EXPECT_TRUE(trr.onHammer({0, 10, 1'300'000}));
    EXPECT_EQ(trr.mitigations(), 1u);
    // A weak pass under the threshold sails through...
    EXPECT_FALSE(trr.onHammer({0, 20, 400'000}));
    // ...but accumulates: two more and row 20 trips too.
    EXPECT_FALSE(trr.onHammer({0, 20, 400'000}));
    EXPECT_TRUE(trr.onHammer({0, 20, 400'000}));
}

TEST(SoftTrr, BoundedTableEvictsColdestRow)
{
    SoftTrrObserver trr(1'000'000, 2);
    trr.onHammer({0, 1, 500'000});
    trr.onHammer({0, 2, 600'000});
    EXPECT_EQ(trr.trackedRows(), 2u);
    // A third row recycles the coldest slot (row 1).
    trr.onHammer({0, 3, 100'000});
    EXPECT_EQ(trr.trackedRows(), 2u);
    EXPECT_EQ(trr.evictions(), 1u);
}

TEST(DefenseVsAttack, SoftTrrStopsProjectZero)
{
    // The software-only defense holds on its own: every hammer
    // pass exceeds the threshold, so no flips ever land.
    sim::MachineConfig config;
    config.defense = DefenseKind::SoftTrr;
    sim::Machine machine(config);
    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::ProjectZero);
    EXPECT_NE(result.outcome, attack::Outcome::Escalated);
    EXPECT_EQ(result.flipsInduced, 0u);
    EXPECT_GT(machine.observer()->mitigations(), 0u);
}

TEST(DefenseNames, AllDistinct)
{
    EXPECT_STREQ(defenseName(DefenseKind::Cta), "CTA");
    EXPECT_STREQ(defenseName(DefenseKind::Para), "PARA");
    EXPECT_STRNE(defenseName(DefenseKind::Catt),
                 defenseName(DefenseKind::Zebram));
}

TEST(DefenseVsAttack, ParaStopsProjectZero)
{
    sim::MachineConfig config;
    config.defense = DefenseKind::Para;
    sim::Machine machine(config);
    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::ProjectZero);
    EXPECT_NE(result.outcome, attack::Outcome::Escalated);
    EXPECT_EQ(result.flipsInduced, 0u);
    EXPECT_GT(machine.observer()->mitigations(), 0u);
}

TEST(DefenseVsAttack, AnvilDetectsProjectZero)
{
    sim::MachineConfig config;
    config.defense = DefenseKind::Anvil;
    config.anvilThreshold = 1'000'000;
    sim::Machine machine(config);
    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::ProjectZero);
    EXPECT_NE(result.outcome, attack::Outcome::Escalated);
    EXPECT_TRUE(machine.anvil()->triggered());
}

TEST(DefenseVsAttack, RefreshBoostOnlySlowsTheAttack)
{
    sim::MachineConfig config;
    config.defense = DefenseKind::RefreshBoost;
    config.refreshBoostFactor = 2;
    sim::Machine machine(config);
    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::ProjectZero);
    // Half the passes land; on this vulnerable module the attack
    // still eventually succeeds — the paper's "no guarantee" point.
    EXPECT_EQ(result.outcome, attack::Outcome::Escalated)
        << result.detail;
}

} // namespace
} // namespace ctamem::defense
