/**
 * @file
 * Unit tests for the common utilities: bit operations, RNG and
 * stable hashing, combinatorics, statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/bitops.hh"
#include "common/combinatorics.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace ctamem {
namespace {

TEST(Types, PageConversions)
{
    EXPECT_EQ(addrToPfn(0), 0u);
    EXPECT_EQ(addrToPfn(4095), 0u);
    EXPECT_EQ(addrToPfn(4096), 1u);
    EXPECT_EQ(pfnToAddr(3), 3u * 4096);
    EXPECT_EQ(pageAlignDown(0x1234), 0x1000u);
    EXPECT_EQ(pageAlignUp(0x1234), 0x2000u);
    EXPECT_EQ(pageAlignUp(0x1000), 0x1000u);
}

TEST(Bitops, BitsExtractInsert)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 0), 0xdeadbeefu);
    EXPECT_EQ(insertBits(0, 15, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(~0ULL, 7, 0, 0), ~0ULL << 8);
    EXPECT_TRUE(bit(0x80, 7));
    EXPECT_FALSE(bit(0x80, 6));
}

TEST(Bitops, PopcountAndHamming)
{
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(0xff), 8u);
    EXPECT_EQ(hammingDistance(0b1010, 0b0101), 4u);
    EXPECT_EQ(hammingDistance(42, 42), 0u);
}

TEST(Bitops, PowersAndLogs)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(4096), 12u);
    EXPECT_EQ(log2Ceil(4097), 13u);
    EXPECT_EQ(log2Ceil(1), 0u);
}

TEST(Rng, StableHashIsStable)
{
    EXPECT_EQ(stableHash(1, 2, 3), stableHash(1, 2, 3));
    EXPECT_NE(stableHash(1, 2, 3), stableHash(1, 2, 4));
    EXPECT_NE(stableHash(1, 2, 3), stableHash(2, 2, 3));
}

TEST(Rng, Hash01Range)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const double u = hash01(7, i);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Hash01IsRoughlyUniform)
{
    unsigned below_half = 0;
    const unsigned trials = 20000;
    for (std::uint64_t i = 0; i < trials; ++i)
        if (hash01(13, i) < 0.5)
            ++below_half;
    EXPECT_NEAR(below_half, trials / 2, trials / 20);
}

TEST(Rng, SequentialDeterminism)
{
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 17u); // all residues hit
}

TEST(Rng, BernoulliMaskEmpiricalFrequency)
{
    // The mask's bits must be Bernoulli(p): over many masks the set
    // fraction converges to p.  6-sigma tolerance on ~1.3M draws.
    Rng rng(21);
    for (const double p : {0.03125, 0.3, 0.5, 0.9}) {
        std::uint64_t set = 0;
        const std::uint64_t masks = 20'000;
        for (std::uint64_t i = 0; i < masks; ++i)
            set += popcount(rng.bernoulliMask(p));
        const double draws = static_cast<double>(masks * 64);
        const double freq = static_cast<double>(set) / draws;
        const double sigma = std::sqrt(p * (1.0 - p) / draws);
        EXPECT_NEAR(freq, p, 6 * sigma) << "p=" << p;
    }
}

TEST(Rng, BernoulliMaskEdgesConsumeNothing)
{
    Rng a(4), b(4);
    EXPECT_EQ(a.bernoulliMask(0.0), 0u);
    EXPECT_EQ(a.bernoulliMask(-1.0), 0u);
    EXPECT_EQ(a.bernoulliMask(1.0), ~0ULL);
    EXPECT_EQ(a.bernoulliMask(2.0), ~0ULL);
    // Degenerate probabilities draw no words: streams stay aligned.
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BernoulliMaskIsDeterministic)
{
    Rng a(77), b(77);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.bernoulliMask(0.3), b.bernoulliMask(0.3));
}

TEST(Rng, NextBoundedIsInRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 17u); // all residues hit
    EXPECT_EQ(rng.nextBounded(1), 0u);
    // A bound near 2^63 exercises the wide-product path.
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(rng.nextBounded(1ULL << 62), 1ULL << 62);
}

TEST(Rng, NextBoundedIsRoughlyUniform)
{
    Rng rng(11);
    constexpr std::uint64_t kBound = 8;
    constexpr int kDraws = 80'000;
    std::uint64_t buckets[kBound] = {};
    for (int i = 0; i < kDraws; ++i)
        ++buckets[rng.nextBounded(kBound)];
    for (std::uint64_t b = 0; b < kBound; ++b)
        EXPECT_NEAR(static_cast<double>(buckets[b]),
                    kDraws / static_cast<double>(kBound),
                    6 * std::sqrt(kDraws / static_cast<double>(kBound)))
            << "bucket " << b;
}

TEST(Combinatorics, Choose)
{
    EXPECT_NEAR(choose(8, 0), 1.0, 1e-9);
    EXPECT_NEAR(choose(8, 1), 8.0, 1e-9);
    EXPECT_NEAR(choose(8, 2), 28.0, 1e-9);
    EXPECT_NEAR(choose(8, 8), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(choose(3, 5), 0.0);
}

TEST(Combinatorics, BinomialTermMatchesDirectEvaluation)
{
    const double p_up = 2e-7;
    const double p_down = 9.98e-5;
    const double direct =
        8.0 * p_up * std::pow(1.0 - p_down, 7);
    EXPECT_NEAR(binomialTerm(8, 1, p_up, p_down), direct,
                direct * 1e-12);
}

TEST(Combinatorics, PaperHeadlineExploitability)
{
    // Section 5: Pf = 1e-4, P01 = 0.2% -> P_exploitable = 1.6e-6 for
    // n = 8 (8 GiB / 32 MiB ZONE_PTP).
    const double p = binomialTail(8, 1, 1e-4 * 0.002, 1e-4 * 0.998);
    EXPECT_NEAR(p, 1.6e-6, 0.05e-6);
}

TEST(Combinatorics, TailIsMonotoneInMinFlips)
{
    const double p_up = 1e-4;
    const double p_down = 1e-4;
    double prev = 1.0;
    for (unsigned min_flips = 0; min_flips <= 8; ++min_flips) {
        const double tail = binomialTail(8, min_flips, p_up, p_down);
        EXPECT_LE(tail, prev + 1e-18);
        prev = tail;
    }
}

TEST(Combinatorics, AtLeastOne)
{
    EXPECT_DOUBLE_EQ(atLeastOne(0.0, 100), 0.0);
    EXPECT_DOUBLE_EQ(atLeastOne(1.0, 5), 1.0);
    EXPECT_NEAR(atLeastOne(0.5, 2), 0.75, 1e-12);
    // Stability for tiny p, huge trial count.
    EXPECT_NEAR(atLeastOne(1e-12, 1e6), 1e-6, 1e-9);
}

TEST(Stats, CounterAndSamples)
{
    Counter c;
    c.increment();
    c.increment(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, StatGroup)
{
    StatGroup g;
    g.counter("a").increment(2);
    EXPECT_EQ(g.value("a"), 2u);
    EXPECT_EQ(g.value("missing"), 0u);
    g.reset();
    EXPECT_EQ(g.value("a"), 0u);
}

TEST(Stats, StatGroupHandles)
{
    StatGroup g;
    const StatId a = g.registerCounter("a");
    const StatId b = g.registerCounter("b");
    EXPECT_NE(a, b);
    EXPECT_EQ(g.registerCounter("a"), a); // idempotent

    g.at(a).increment(3);
    g.at(b).increment();
    EXPECT_EQ(g.value("a"), 3u);
    EXPECT_EQ(g.value("b"), 1u);

    // The string view and the handle view hit the same counter.
    g.counter("a").increment();
    EXPECT_EQ(g.at(a).value(), 4u);

    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "a = 4\nb = 1\n");

    g.reset();
    EXPECT_EQ(g.at(a).value(), 0u);
    EXPECT_EQ(g.at(b).value(), 0u);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(fatal("boom ", 42), FatalError);
    try {
        fatal("code=", 7);
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "code=7");
    }
}

} // namespace
} // namespace ctamem
