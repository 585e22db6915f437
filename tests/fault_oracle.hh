/**
 * @file
 * Cell-level view of the fault model's vulnerability map, for tests
 * that check row profiles, the PS-bit screen and the scalar hammer
 * reference against it.  FaultModel::frameCells() draws a whole
 * 4 KiB frame at once, so a test asking about many cells walks frames
 * with vulnerableCells(); vulnerable() regenerates its cell's frame
 * on every call.  Test-only code.
 */

#ifndef CTAMEM_TESTS_FAULT_ORACLE_HH
#define CTAMEM_TESTS_FAULT_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/fault_model.hh"

namespace ctamem::dram {

/**
 * Vulnerable cells of the frame-aligned range [@p base, @p base +
 * @p bytes), as ascending offsets (byte * 8 + bit) from @p base.
 */
inline std::vector<std::uint64_t>
vulnerableCells(const FaultModel &faults, Addr base, std::uint64_t bytes)
{
    std::vector<std::uint64_t> cells;
    std::vector<std::uint32_t> frame;
    for (std::uint64_t offset = 0; offset < bytes; offset += pageSize) {
        frame.clear();
        faults.frameCells(base + offset, frame);
        for (const std::uint32_t cell : frame)
            cells.push_back(offset * 8 + cell);
    }
    return cells;
}

/** True iff the cell at (@p addr, @p bit) is RowHammer-flippable. */
inline bool
vulnerable(const FaultModel &faults, Addr addr, unsigned bit)
{
    const Addr frame = addr & ~(pageSize - 1);
    const std::vector<std::uint64_t> cells =
        vulnerableCells(faults, frame, pageSize);
    return std::binary_search(cells.begin(), cells.end(),
                              (addr - frame) * 8 + bit);
}

} // namespace ctamem::dram

#endif // CTAMEM_TESTS_FAULT_ORACLE_HH
