#include "dram/module.hh"

#include <bit>

#include "common/log.hh"

namespace ctamem::dram {

DramModule::DramModule(const DramConfig &config)
    : config_(config),
      geometry_(config.capacity, config.rowBytes, config.banks,
                config.scheme),
      faults_(config.seed, config.errors)
{
    remapsId_ = stats_.registerCounter("remaps");
    decayedBitsId_ = stats_.registerCounter("decayedBits");
}

std::uint64_t
DramModule::deviceRow(std::uint64_t bank, std::uint64_t row) const
{
    auto it = remapByLogical_.find({bank, row});
    return it == remapByLogical_.end() ? row : it->second;
}

std::uint64_t
DramModule::logicalRow(std::uint64_t bank,
                       std::uint64_t device_row) const
{
    // Swap semantics make the relation symmetric.
    auto it = remapByLogical_.find({bank, device_row});
    return it == remapByLogical_.end() ? device_row : it->second;
}

Addr
DramModule::rowBase(std::uint64_t bank, std::uint64_t device_row) const
{
    const std::uint64_t logical = logicalRow(bank, device_row);
    if (logical == ~0ULL)
        return ~0ULL;
    return geometry_.address(Location{bank, logical, 0});
}

CellType
DramModule::rowCellType(std::uint64_t bank, std::uint64_t row) const
{
    return config_.cellMap.rowType(deviceRow(bank, row));
}

CellType
DramModule::cellTypeAt(Addr addr) const
{
    const Location loc = geometry_.locate(addr);
    return rowCellType(loc.bank, loc.row);
}

void
DramModule::remapRow(std::uint64_t bank, std::uint64_t row,
                     std::uint64_t spare_row)
{
    if (bank >= geometry_.banks() || row >= geometry_.rowsPerBank() ||
        spare_row >= geometry_.rowsPerBank()) {
        fatal("remapRow: coordinates out of range");
    }
    const CellType original = config_.cellMap.rowType(row);
    const CellType spare = config_.cellMap.rowType(spare_row);
    if (original != spare) {
        fatal("remapRow: spare row ", spare_row, " is ",
              cellTypeName(spare), " but logical row ", row, " is ",
              cellTypeName(original),
              "; sense amplifiers require like-for-like spares");
    }
    if (remapByLogical_.contains({bank, row}) ||
        remapByLogical_.contains({bank, spare_row})) {
        fatal("remapRow: row already re-mapped");
    }
    remapByLogical_[{bank, row}] = spare_row;
    remapByLogical_[{bank, spare_row}] = row;
    stats_.at(remapsId_).increment();
}

void
DramModule::powerOff(SimTime duration, double celsius)
{
    Counter &decayed = stats_.at(decayedBitsId_);
    for (Pfn pfn : store_.touchedFrames()) {
        const Addr base = pfnToAddr(pfn);
        // A frame lies in one row, so one cell type: every bit of it
        // leaks toward the same discharged value.
        const std::uint64_t discharged =
            dischargedBit(cellTypeAt(base)) ? ~0ULL : 0;
        for (Addr addr = base; addr < base + pageSize; addr += 8) {
            const std::uint64_t word = store_.readU64(addr);
            // Lane byte * 8 + bit of a little-endian word is that
            // bit of the byte at addr + byte.
            std::uint64_t leaked = 0;
            for (std::uint64_t charged = word ^ discharged; charged;
                 charged &= charged - 1) {
                const unsigned lane = std::countr_zero(charged);
                if (faults_.retentionTime(addr + lane / 8, lane % 8,
                                          celsius) < duration) {
                    leaked |= 1ULL << lane;
                }
            }
            if (leaked) {
                store_.writeU64(addr, word ^ leaked);
                decayed.increment(std::popcount(leaked));
            }
        }
    }
}

} // namespace ctamem::dram
