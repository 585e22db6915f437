/**
 * @file
 * Deterministic random-number utilities.
 *
 * Two distinct needs in ctamem:
 *  - a sequential PRNG (Rng) for sampling attack outcomes, workload
 *    generation, Monte-Carlo estimation; and
 *  - a *stateless stable hash* (stableHash / cellHash01) that maps a
 *    (seed, key...) tuple to a reproducible pseudo-random value.  The
 *    DRAM fault model uses it so that a given cell's RowHammer
 *    vulnerability is an immutable property of the simulated module —
 *    the precondition for Drammer-style memory templating.
 */

#ifndef CTAMEM_COMMON_RNG_HH
#define CTAMEM_COMMON_RNG_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace ctamem {

/**
 * The repository's named default seeds.  Every component that used to
 * hardcode a magic number (MachineConfig's 1234, the Monte-Carlo 42,
 * the observer streams) pulls it from here, and derived per-component
 * streams go through deriveSeed() below instead of ad-hoc XOR.
 */
namespace seeds {

/** Default DRAM/machine seed (the benches' "seed 1234"). */
inline constexpr std::uint64_t kMachine = 1234;

/** Default seed of the model's Monte-Carlo estimators. */
inline constexpr std::uint64_t kMonteCarlo = 42;

/** Stream tag for the PARA observer's refresh lottery. */
inline constexpr std::uint64_t kParaStream = 0x9a4a;

/** Stream tag for the refresh-boost observer's pass gate. */
inline constexpr std::uint64_t kRefreshBoostStream = 0xb005;

/** Stream tag for the in-DRAM TRR sampler's reservoir. */
inline constexpr std::uint64_t kTrrSamplerStream = 0x7225;

/** Stream tag for the pattern fuzzer's evolutionary loop. */
inline constexpr std::uint64_t kFuzzStream = 0xf022;

} // namespace seeds

/** splitmix64 step: the core mixing function used everywhere below. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Key-mixing constant of stableHash().  Exposed so callers that fold
 * one stableHash level into a precomputed base (the fault model's
 * per-salt bases) stay bit-identical to the generic chain.
 */
inline constexpr std::uint64_t kStableHashMix = 0x517cc1b727220a95ULL;

/** Combine any number of 64-bit keys into one stable hash value. */
constexpr std::uint64_t
stableHash(std::uint64_t seed)
{
    return splitmix64(seed);
}

template <typename... Rest>
constexpr std::uint64_t
stableHash(std::uint64_t seed, std::uint64_t key, Rest... rest)
{
    return stableHash(splitmix64(seed ^ (key + kStableHashMix)),
                      rest...);
}

/**
 * FNV-1a over a byte range: the stable content hash used for
 * content-addressed cache keys and snapshot-blob checksums, where the
 * input is a serialized byte string rather than a u64 tuple.
 */
inline std::uint64_t
hashBytes(const void *data, std::size_t size,
          std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Derive an independent child seed from a base seed and a stream
 * index (a counter, an observer tag, a Monte-Carlo chunk number).
 * Counter-based: deriveSeed(s, i) for i = 0, 1, 2, ... yields
 * decorrelated streams without any sequential hand-off, which is what
 * makes chunked parallel sampling order-independent.
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return stableHash(seed, stream);
}

/** Map a stable hash of the keys to a double uniform in [0, 1). */
template <typename... Keys>
constexpr double
hash01(std::uint64_t seed, Keys... keys)
{
    // 53 high bits -> exactly representable double in [0,1).
    return static_cast<double>(stableHash(seed, keys...) >> 11) *
           (1.0 / 9007199254740992.0);
}

/**
 * Sequential PRNG (xoshiro256** core seeded from splitmix64).
 * Not thread-safe; create one per worker.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x++);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Rejection sampling removes modulo bias.
        const std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Independent Bernoulli(p) draws packed into one word: each bit
     * of the result inside @p lanes is set with probability p (bits
     * outside @p lanes are 0 and consume no randomness).
     *
     * Threshold composition over the binary expansion of p: every
     * lane conceptually compares a uniform binary fraction against p,
     * and one raw word supplies the next fraction bit of all lanes at
     * once, most significant first.  A lane is decided at the first
     * fraction bit that differs from the matching bit of p (random 0
     * under a p-bit 1 means fraction < p), so the expected cost is
     * ~log2(popcount(lanes)) + 2 words per mask — about 1/8 word per
     * Bernoulli draw for a full mask instead of the full word
     * chance() burns, and ~2 words when a caller narrows @p lanes to
     * a few survivors of a previous mask.  The loop also stops at the
     * threshold's lowest set bit: once every remaining threshold bit
     * is 0, an undecided lane (prefix equal to p's) can only end at
     * fraction >= p, i.e. 0 — so e.g. p = 1/2 costs exactly one word.
     * The number of words consumed depends only on p, @p lanes, and
     * the stream itself, so the draw sequence stays a pure function
     * of the seed (the Monte-Carlo kernel's determinism contract).
     *
     * Exact for p quantized to a 64-bit fraction: P(bit set) is
     * round-to-nearest of p * 2^64, an error of at most 2^-65 — far
     * below the sampling noise of any feasible trial count.
     */
    std::uint64_t
    bernoulliMask(double p, std::uint64_t lanes = ~0ULL)
    {
        if (p <= 0.0 || lanes == 0)
            return 0;
        if (p >= 1.0)
            return lanes;
        const std::uint64_t threshold = fractionBits(p);
        if (threshold == 0)
            return 0;
        const int lowest = std::countr_zero(threshold);
        std::uint64_t result = 0;
        std::uint64_t undecided = lanes;
        for (int k = 63; k >= lowest && undecided; --k) {
            const std::uint64_t u = next();
            if ((threshold >> k) & 1) {
                result |= undecided & ~u;
                undecided &= u;
            } else {
                undecided &= ~u;
            }
        }
        return result;
    }

    /**
     * Uniform integer in [0, bound) via multiply-shift (Lemire),
     * rejecting only inside the narrow boundary window — branch-free
     * on the overwhelmingly common path.  Consumes a different word
     * count than below() for the same stream, so below()'s callers
     * keep their draw sequences; the Monte-Carlo kernel uses this.
     * @pre bound > 0.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = (-bound) % bound;
            while (low < threshold) {
                m = static_cast<unsigned __int128>(next()) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

  private:
    /** p in (0, 1) as a 64-bit binary fraction. */
    static std::uint64_t
    fractionBits(double p)
    {
        // Multiplying by 2^64 (a power of two) rescales p exactly —
        // same significand, shifted exponent — and stays inline,
        // unlike a libm ldexp call.
        const double scaled = p * 18446744073709551616.0;
        // p within 2^-64 of 1 scales to 2^64 itself: saturate.
        if (scaled >= 18446744073709551616.0)
            return ~0ULL;
        return static_cast<std::uint64_t>(scaled);
    }

    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace ctamem

#endif // CTAMEM_COMMON_RNG_HH
