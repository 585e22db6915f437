/**
 * @file
 * System-level DRAM cell-type identification (Section 2.2 of the
 * paper).
 *
 * Protocol: write logical '1' to every cell under test, power the
 * module off for longer than the retention time of most cells, and
 * read back.  True-cells (charged = '1') leak to '0'; anti-cells
 * (write of '1' put them in the discharged state) still read '1'.
 * The profiler classifies each row by majority vote over sampled
 * bytes, then extracts contiguous same-type regions — the input the
 * CTA zone builder consumes.
 */

#ifndef CTAMEM_PROFILE_CELL_PROFILER_HH
#define CTAMEM_PROFILE_CELL_PROFILER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/cell_types.hh"
#include "dram/module.hh"

namespace ctamem::profile {

/** A run of consecutive same-type rows within one bank. */
struct RowRegion
{
    std::uint64_t bank;
    std::uint64_t firstRow; //!< inclusive
    std::uint64_t lastRow;  //!< inclusive
    dram::CellType type;

    std::uint64_t rows() const { return lastRow - firstRow + 1; }

    bool operator==(const RowRegion &other) const = default;
};

/** Identifies true-cell/anti-cell regions via the retention protocol. */
class CellTypeProfiler
{
  public:
    /**
     * Power-off wait: exceeds the 20 C retention of essentially all
     * cells.
     */
    static constexpr SimTime kSettleTime = 300 * seconds;
    /** Bytes sampled per row for the majority vote. */
    static constexpr std::uint64_t kSampleBytes = 64;

    /**
     * @param module the module under test (its data is destroyed in
     *               the profiled range — run at boot)
     */
    explicit CellTypeProfiler(dram::DramModule &module)
        : module_(module)
    {}

    /** Classify a single row of a bank using the full protocol. */
    dram::CellType classifyRow(std::uint64_t bank, std::uint64_t row);

    /**
     * Classify rows [first_row, last_row] of @p bank in one power-off
     * and return per-row types.
     */
    std::vector<dram::CellType>
    classifyRows(std::uint64_t bank, std::uint64_t first_row,
                 std::uint64_t last_row);

    /**
     * Classify a row range and merge consecutive rows of equal type
     * into regions.
     */
    std::vector<RowRegion>
    profileRegions(std::uint64_t bank, std::uint64_t first_row,
                   std::uint64_t last_row);

    /** Only the true-cell regions of profileRegions(). */
    std::vector<RowRegion>
    trueCellRegions(std::uint64_t bank, std::uint64_t first_row,
                    std::uint64_t last_row);

  private:
    /** Addresses sampled within a row (spread across the row). */
    std::vector<Addr> sampleAddresses(std::uint64_t bank,
                                      std::uint64_t row) const;

    dram::DramModule &module_;
};

} // namespace ctamem::profile

#endif // CTAMEM_PROFILE_CELL_PROFILER_HH
