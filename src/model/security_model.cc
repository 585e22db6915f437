#include "model/security_model.hh"

#include <cmath>

#include "common/bitops.hh"
#include "common/combinatorics.hh"
#include "common/log.hh"

namespace ctamem::model {

unsigned
SystemParams::indicatorBits() const
{
    if (!isPowerOfTwo(memBytes) || !isPowerOfTwo(ptpBytes) ||
        ptpBytes >= memBytes) {
        fatal("SystemParams: memory and ZONE_PTP sizes must be "
              "powers of two with ptp < mem");
    }
    return log2Floor(memBytes / ptpBytes);
}

unsigned
SystemParams::pointerBits() const
{
    if (!isPowerOfTwo(granuleBytes) || granuleBytes >= ptpBytes) {
        fatal("SystemParams: granule must be a power of two smaller "
              "than ZONE_PTP");
    }
    return log2Floor(memBytes / granuleBytes);
}

double
pExploitable(const SystemParams &params)
{
    const unsigned n = params.indicatorBits();
    const unsigned min_flips =
        params.minIndicatorZeros == 0 ? 1 : params.minIndicatorZeros;
    const double p_up = params.errors.upFlipProb(params.zoneCells);
    const double p_down = params.errors.downFlipProb(params.zoneCells);
    return binomialTail(n, min_flips, p_up, p_down);
}

double
pExploitableExactZeros(const SystemParams &params, unsigned zeros)
{
    const unsigned n = params.indicatorBits();
    if (zeros > n)
        fatal("pExploitableExactZeros: zeros > indicator bits");
    const double p_up = params.errors.upFlipProb(params.zoneCells);
    const double p_down = params.errors.downFlipProb(params.zoneCells);
    // binomialTerm folds in the C(n, i) content choices the
    // FixedZeros sampler averages over symmetrically; divide it back
    // out to get the per-content probability, all in log space.
    return binomialTerm(n, zeros, p_up, p_down) / choose(n, zeros);
}

double
pExploitableUniform(const SystemParams &params)
{
    const unsigned n = params.indicatorBits();
    const double p_up = params.errors.upFlipProb(params.zoneCells);
    const double p_down = params.errors.downFlipProb(params.zoneCells);
    // Average of pUp^z (1-pDown)^(n-z) over the 2^n - 1 indicator
    // values below all-ones; the z = 0 term is the excluded zone row.
    const double contents =
        static_cast<double>((1ULL << n) - 1);
    return binomialTail(n, 1, p_up, p_down) / contents;
}

double
expectedExploitablePtes(const SystemParams &params)
{
    return pExploitable(params) *
           static_cast<double>(params.pteCount());
}

double
vulnerableSystemFraction(const SystemParams &params)
{
    // With E << 1, P(at least one exploitable PTE) ~= E.
    return atLeastOne(pExploitable(params),
                      static_cast<double>(params.pteCount()));
}

AttackTime
expectedAttackTime(const SystemParams &params)
{
    // Dividing (rather than scaling by 1e-9) rounds each cost to the
    // double nearest its decimal value in seconds, e.g. 0.184.
    const auto in_seconds = [](SimTime t) {
        return static_cast<double>(t) / static_cast<double>(seconds);
    };
    AttackTime result;
    result.perPageSeconds =
        in_seconds(kSprayFillCost) +
        static_cast<double>(params.ptpRows()) *
            (in_seconds(kHammerRowCost) +
             static_cast<double>(params.ptesPerRow()) *
                 in_seconds(kCheckPteCost));

    constexpr double seconds_per_day = 86400.0;
    const double worst_seconds =
        static_cast<double>(params.pagesBelowLwm()) *
        result.perPageSeconds;
    result.worstDays = worst_seconds / seconds_per_day;

    if (params.minIndicatorZeros >= 2) {
        // Conditioned on the rare vulnerable system: assume exactly
        // one exploitable PTE, found halfway on average.
        result.avgDays = result.worstDays / 2.0;
    } else {
        const double expected = expectedExploitablePtes(params);
        result.avgDays =
            result.worstDays / (std::ceil(expected) + 1.0);
    }
    return result;
}

} // namespace ctamem::model
