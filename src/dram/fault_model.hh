/**
 * @file
 * Per-cell fault properties of a simulated DRAM module.
 *
 * Every property is a pure, stable function of the module seed and
 * the cell's logical address: whether the cell is RowHammer-
 * vulnerable, which direction a vulnerable cell flips, the minimum
 * hammer intensity that trips it, and the cell's data-retention time.
 * Stability matters: Drammer-style "memory templating" (van der Veen
 * et al.) only works because a real module's flippable bits are a
 * fixed physical property, and the attacks we reproduce rely on
 * exactly that.
 *
 * Vulnerability is drawn a 4 KiB frame at a time: frameCells() skips
 * from one vulnerable cell to the next by Geometric(pf) gaps drawn
 * from a counter-seeded stream keyed on (seed, frame number), so it
 * costs time in proportion to the frame's vulnerable cells, not its
 * 32,768 cells, and any frame can be generated alone.  The properties
 * of a vulnerable cell (flipDirection / tripThreshold / tripHash /
 * retentionTime) are per-cell hashes.  They hoist the per-salt
 * stableHash prefix into a precomputed base and compare the raw
 * 53-bit hash against an integer threshold.  Multiplying a
 * probability by 2^53 is exact (power-of-two scaling), so
 * `hash01(...) < p` and the integer compare agree for every hash
 * value.  The hammer engine keeps each vulnerable cell's raw trip
 * hash (tripHash) for the same reason.
 */

#ifndef CTAMEM_DRAM_FAULT_MODEL_HH
#define CTAMEM_DRAM_FAULT_MODEL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/cell_types.hh"
#include "dram/error_stats.hh"

namespace ctamem::dram {

/** Direction a vulnerable cell flips when disturbed. */
enum class FlipDirection : std::uint8_t { OneToZero, ZeroToOne };

/** Per-cell stable fault properties. */
class FaultModel
{
  public:
    FaultModel(std::uint64_t seed, const ErrorStats &stats)
        : seed_(seed), stats_(stats),
          vulnBase_(saltBase(seed, saltVulnerable)),
          dirBase_(saltBase(seed, saltDirection)),
          thrBase_(saltBase(seed, saltThreshold)),
          retBase_(saltBase(seed, saltRetention)),
          logMissRate_(std::log1p(-stats.pf)),
          dirLt_(strictThreshold(stats.p10True()))
    {}

    const ErrorStats &stats() const { return stats_; }
    std::uint64_t seed() const { return seed_; }

    /** Cells of one 4 KiB frame (eight per byte). */
    static constexpr std::uint32_t kFrameCells = pageSize * 8;

    /**
     * Append the RowHammer-flippable cells of the 4 KiB frame at
     * @p frame_base to @p out, as ascending in-frame offsets
     * (byte * 8 + bit, below kFrameCells).  Each cell is vulnerable
     * with probability pf, independently: the gaps between them are
     * Geometric(pf), the k-th drawn from stableHash(seed,
     * saltVulnerable, pfn, k), so no state carries across frames.
     */
    void frameCells(Addr frame_base,
                    std::vector<std::uint32_t> &out) const;

    /**
     * Flip direction of a *vulnerable* cell that sits in a row of
     * cell type @p type.  In true-cell rows the dominant direction is
     * '1'->'0' (probability p10True()); the rare opposite direction
     * models circuit effects such as voltage coupling.  Anti-cell rows
     * mirror the distribution.
     */
    FlipDirection
    flipDirection(Addr addr, unsigned bit, CellType type) const
    {
        const bool dominant =
            cellHash(dirBase_, cellIndex(addr, bit)) < dirLt_;
        if (type == CellType::True) {
            // Dominant: leak from the charged '1' state.
            return dominant ? FlipDirection::OneToZero :
                              FlipDirection::ZeroToOne;
        }
        // Anti-cells leak from the charged '0' state.
        return dominant ? FlipDirection::ZeroToOne :
                          FlipDirection::OneToZero;
    }

    /**
     * Minimum hammer intensity (in [0,1]) that trips this vulnerable
     * cell.  A double-sided hammer applies intensity 1.0 and trips
     * every vulnerable cell; a single-sided hammer applies a smaller
     * intensity and trips only the most sensitive subset.
     */
    double
    tripThreshold(Addr addr, unsigned bit) const
    {
        return toUnit(tripHash(addr, bit));
    }

    /**
     * The 53-bit hash behind tripThreshold(): the threshold times
     * 2^53, exactly.  A pass of intensity i trips the cell iff
     * tripHash <= floor(i * 2^53), since the hash is an integer
     * exactly representable as a double.
     */
    std::uint64_t
    tripHash(Addr addr, unsigned bit) const
    {
        return cellHash(thrBase_, cellIndex(addr, bit));
    }

    /**
     * Retention time of the cell at ambient temperature @p celsius.
     * Sampled from a shifted-exponential at 20 C and scaled by the
     * standard retention-doubles-per-10C-drop rule, so cold-boot
     * scenarios (Section 8) see realistic remanence.
     */
    SimTime retentionTime(Addr addr, unsigned bit,
                          double celsius = 20.0) const;

  private:
    // Salts keep the independent per-cell properties decorrelated.
    static constexpr std::uint64_t saltVulnerable = 0x76756c6eULL;
    static constexpr std::uint64_t saltDirection = 0x64697265ULL;
    static constexpr std::uint64_t saltThreshold = 0x74687265ULL;
    static constexpr std::uint64_t saltRetention = 0x72657465ULL;

    static std::uint64_t
    cellIndex(Addr addr, unsigned bit)
    {
        return addr * 8 + bit;
    }

    /**
     * Hoisted prefix of stableHash(seed, salt, idx): the chain is
     * splitmix64(splitmix64(splitmix64(seed ^ (salt+M)) ^ (idx+M)))
     * — two key-folding rounds plus the terminal finalizer — and the
     * innermost term depends only on (seed, salt).
     */
    static std::uint64_t
    saltBase(std::uint64_t seed, std::uint64_t salt)
    {
        return splitmix64(seed ^ (salt + kStableHashMix));
    }

    /**
     * 53-bit hash of @p idx under a hoisted base: a cell index under
     * a salt's base, or a draw counter under a frame's key.
     */
    static std::uint64_t
    cellHash(std::uint64_t base, std::uint64_t idx)
    {
        return splitmix64(splitmix64(base ^ (idx + kStableHashMix))) >>
               11;
    }

    /** The double in [0,1) hash01() would have produced. */
    static double
    toUnit(std::uint64_t hash53)
    {
        return static_cast<double>(hash53) *
               (1.0 / 9007199254740992.0);
    }

    /**
     * Integer threshold T with  hash53 < T  <=>  toUnit(hash53) < p.
     * p * 2^53 is exact, and hash53 converts to double exactly, so
     * the strict real comparison equals `hash53 < ceil-adjusted(T)`.
     */
    static std::uint64_t
    strictThreshold(double p)
    {
        const double scaled = p * 9007199254740992.0;
        if (scaled <= 0.0)
            return 0;
        if (scaled >= 9007199254740992.0)
            return 9007199254740992ULL; // every 53-bit hash passes
        const auto floor53 = static_cast<std::uint64_t>(scaled);
        return static_cast<double>(floor53) < scaled ? floor53 + 1 :
                                                       floor53;
    }

    std::uint64_t seed_;
    ErrorStats stats_;
    std::uint64_t vulnBase_;
    std::uint64_t dirBase_;
    std::uint64_t thrBase_;
    std::uint64_t retBase_;
    double logMissRate_; //!< log(1 - pf), the gap draw's divisor
    std::uint64_t dirLt_;
};

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_FAULT_MODEL_HH
