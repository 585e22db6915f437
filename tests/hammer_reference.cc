#include "hammer_reference.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"

namespace ctamem::dram {

namespace reference {

namespace {

/** The scalar engine's row scan: every cell, one hash at a time. */
std::vector<VulnerableBit>
scanRowScalar(DramModule &module, std::uint64_t bank,
              std::uint64_t device_row)
{
    const Geometry &geom = module.geometry();
    const std::uint64_t logical = module.logicalRow(bank, device_row);
    std::vector<VulnerableBit> found;
    if (logical != ~0ULL) {
        const Addr base = geom.address(Location{bank, logical, 0});
        const FaultModel &faults = module.faults();
        for (std::uint64_t col = 0; col < geom.rowBytes(); ++col) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                if (faults.vulnerable(base + col, bit)) {
                    found.push_back(VulnerableBit{
                        col, bit,
                        faults.tripThreshold(base + col, bit)});
                }
            }
        }
    }
    std::sort(found.begin(), found.end(),
              [](const VulnerableBit &a, const VulnerableBit &b) {
                  if (a.threshold != b.threshold)
                      return a.threshold < b.threshold;
                  return a.column != b.column ? a.column < b.column
                                              : a.bit < b.bit;
              });
    return found;
}

/** The scalar engine's disturbance pass: readBit/writeBit per cell. */
void
disturbScalar(DramModule &module, std::uint64_t bank,
              std::uint64_t device_row, double intensity,
              HammerResult &result)
{
    const std::uint64_t logical = module.logicalRow(bank, device_row);
    if (logical == ~0ULL)
        return;
    const Geometry &geom = module.geometry();
    const Addr base = geom.address(Location{bank, logical, 0});
    const CellType type = module.cellMap().rowType(device_row);
    const FaultModel &faults = module.faults();

    const std::vector<VulnerableBit> cells =
        scanRowScalar(module, bank, device_row);
    for (const VulnerableBit &cell : cells) {
        if (cell.threshold > intensity)
            break; // sorted ascending: nothing further can trip
        const Addr addr = base + cell.column;
        const FlipDirection dir =
            faults.flipDirection(addr, cell.bit, type);
        const bool stored = module.store().readBit(addr, cell.bit);
        if (dir == FlipDirection::OneToZero && stored) {
            module.store().writeBit(addr, cell.bit, false);
            ++result.flips10;
            result.events.push_back(FlipEvent{addr, cell.bit, dir});
        } else if (dir == FlipDirection::ZeroToOne && !stored) {
            module.store().writeBit(addr, cell.bit, true);
            ++result.flips01;
            result.events.push_back(FlipEvent{addr, cell.bit, dir});
        }
    }
}

} // namespace

HammerResult
hammerRowScalar(DramModule &module, std::uint64_t bank,
                std::uint64_t row)
{
    const Geometry &geom = module.geometry();
    if (bank >= geom.banks() || row >= geom.rowsPerBank())
        fatal("hammerRowScalar: row out of range");

    HammerResult result;
    const std::uint64_t aggressor = module.deviceRow(bank, row);
    if (aggressor > 0)
        disturbScalar(module, bank, aggressor - 1,
                      RowHammerEngine::singleSidedIntensity, result);
    if (aggressor + 1 < geom.rowsPerBank())
        disturbScalar(module, bank, aggressor + 1,
                      RowHammerEngine::singleSidedIntensity, result);
    return result;
}

HammerResult
hammerDoubleSidedScalar(DramModule &module, std::uint64_t bank,
                        std::uint64_t victim_row)
{
    const Geometry &geom = module.geometry();
    if (bank >= geom.banks() || victim_row >= geom.rowsPerBank())
        fatal("hammerDoubleSidedScalar: row out of range");

    const std::uint64_t victim = module.deviceRow(bank, victim_row);
    if (victim == 0 || victim + 1 >= geom.rowsPerBank())
        return hammerRowScalar(module, bank, victim_row);

    HammerResult result;
    disturbScalar(module, bank, victim,
                  RowHammerEngine::doubleSidedIntensity, result);
    if (victim >= 2)
        disturbScalar(module, bank, victim - 2,
                      RowHammerEngine::singleSidedIntensity, result);
    if (victim + 2 < geom.rowsPerBank())
        disturbScalar(module, bank, victim + 2,
                      RowHammerEngine::singleSidedIntensity, result);
    return result;
}

} // namespace reference

} // namespace ctamem::dram
