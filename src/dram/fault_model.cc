#include "dram/fault_model.hh"

#include <cmath>

namespace ctamem::dram {

namespace {

/** Retention distribution at 20 C: 128 ms floor + Exp(mean 2 s). */
constexpr double retentionFloorSec = 0.128;
constexpr double retentionMeanSec = 2.0;

} // namespace

void
FaultModel::frameCells(Addr frame_base,
                       std::vector<std::uint32_t> &out) const
{
    // The two ends, where the log-ratio below has no finite value.
    if (!(stats_.pf > 0.0))
        return;
    if (stats_.pf >= 1.0) {
        for (std::uint32_t cell = 0; cell < kFrameCells; ++cell)
            out.push_back(cell);
        return;
    }
    const std::uint64_t frame_key =
        splitmix64(vulnBase_ ^ (addrToPfn(frame_base) + kStableHashMix));
    std::uint32_t next = 0; // first cell not yet decided
    for (std::uint64_t k = 0;; ++k) {
        // u in (0, 1]: the 53-bit hash plus one, times 2^-53.
        const double u = toUnit(cellHash(frame_key, k) + 1);
        // Cells skipped before the next vulnerable one: Geometric(pf)
        // by inversion.  Compared as a double, because a small pf
        // draws gaps far beyond any integer type.
        const double gap = std::floor(std::log(u) / logMissRate_);
        if (gap >= static_cast<double>(kFrameCells - next))
            return;
        next += static_cast<std::uint32_t>(gap);
        out.push_back(next++);
    }
}

SimTime
FaultModel::retentionTime(Addr addr, unsigned bit, double celsius) const
{
    const double u = toUnit(cellHash(retBase_, cellIndex(addr, bit)));
    // Inverse-CDF sample of the exponential tail; clamp u away from 1
    // so log1p stays finite.
    const double clamped = u > 0.999999999999 ? 0.999999999999 : u;
    const double base_sec =
        retentionFloorSec - retentionMeanSec * std::log1p(-clamped);
    // Retention roughly doubles for every 10 C drop below 20 C.
    const double scale = std::exp2((20.0 - celsius) / 10.0);
    return static_cast<SimTime>(base_sec * scale *
                                static_cast<double>(seconds));
}

} // namespace ctamem::dram
