#include "profile/cell_profiler.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace ctamem::profile {

using dram::CellType;
using dram::Geometry;
using dram::Location;

std::vector<Addr>
CellTypeProfiler::sampleAddresses(std::uint64_t bank,
                                  std::uint64_t row) const
{
    const Geometry &geom = module_.geometry();
    // Samples cluster in the row's first frame: decay simulation
    // cost is per touched frame, and one frame is plenty for a
    // majority vote over hundreds of bits.
    const std::uint64_t window =
        std::min<std::uint64_t>(geom.rowBytes(), pageSize);
    const std::uint64_t count =
        std::min<std::uint64_t>(kSampleBytes, window);
    const std::uint64_t stride = window / count;
    std::vector<Addr> addrs;
    addrs.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        addrs.push_back(geom.address(Location{bank, row, i * stride}));
    return addrs;
}

CellType
CellTypeProfiler::classifyRow(std::uint64_t bank, std::uint64_t row)
{
    return classifyRows(bank, row, row).front();
}

std::vector<CellType>
CellTypeProfiler::classifyRows(std::uint64_t bank,
                               std::uint64_t first_row,
                               std::uint64_t last_row)
{
    if (last_row < first_row ||
        last_row >= module_.geometry().rowsPerBank()) {
        fatal("classifyRows: bad row range [", first_row, ", ",
              last_row, "]");
    }

    // Step 1: write all-ones into the sampled cells.
    for (std::uint64_t row = first_row; row <= last_row; ++row)
        for (Addr addr : sampleAddresses(bank, row))
            module_.writeByte(addr, 0xff);

    // Step 2: let charge leak with the module powered off.
    module_.powerOff(kSettleTime);

    // Step 3: read back; majority of leaked-to-'0' bits => true-cells.
    std::vector<CellType> types;
    types.reserve(last_row - first_row + 1);
    for (std::uint64_t row = first_row; row <= last_row; ++row) {
        std::uint64_t zero_bits = 0;
        std::uint64_t one_bits = 0;
        for (Addr addr : sampleAddresses(bank, row)) {
            const unsigned ones = popcount(module_.readByte(addr));
            one_bits += ones;
            zero_bits += 8 - ones;
        }
        types.push_back(zero_bits > one_bits ? CellType::True :
                                               CellType::Anti);
    }
    return types;
}

std::vector<RowRegion>
CellTypeProfiler::profileRegions(std::uint64_t bank,
                                 std::uint64_t first_row,
                                 std::uint64_t last_row)
{
    const std::vector<CellType> types =
        classifyRows(bank, first_row, last_row);
    std::vector<RowRegion> regions;
    for (std::uint64_t i = 0; i < types.size(); ++i) {
        const std::uint64_t row = first_row + i;
        if (!regions.empty() && regions.back().type == types[i] &&
            regions.back().lastRow + 1 == row) {
            regions.back().lastRow = row;
        } else {
            regions.push_back(RowRegion{bank, row, row, types[i]});
        }
    }
    return regions;
}

std::vector<RowRegion>
CellTypeProfiler::trueCellRegions(std::uint64_t bank,
                                  std::uint64_t first_row,
                                  std::uint64_t last_row)
{
    std::vector<RowRegion> all =
        profileRegions(bank, first_row, last_row);
    std::erase_if(all, [](const RowRegion &region) {
        return region.type != CellType::True;
    });
    return all;
}

} // namespace ctamem::profile
