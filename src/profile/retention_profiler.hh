/**
 * @file
 * Retention-time profiling: measures how long individual cells hold
 * charge, using only reads, writes and power-offs (the same
 * system-level access a bootloader has).  Used by the cold-boot
 * defense (Section 8) to select long-retention canary cells.
 */

#ifndef CTAMEM_PROFILE_RETENTION_PROFILER_HH
#define CTAMEM_PROFILE_RETENTION_PROFILER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/cell_types.hh"
#include "dram/module.hh"

namespace ctamem::profile {

/** One profiled cell. */
struct CellRetention
{
    Addr addr;
    unsigned bit;
    dram::CellType type;
    /** Measured retention (lower bound if it exceeded the cap). */
    SimTime retention;
    bool exceededCap; //!< true when retention > the measurement cap
};

/** Measures per-cell retention via charge/wait/read binary search. */
class RetentionProfiler
{
  public:
    /** Longest power-off the profiler will attempt. */
    static constexpr SimTime kCap = 600 * seconds;
    /** Width of the interval a measurement narrows down to. */
    static constexpr SimTime kTolerance = 50 * milliseconds;
    /** Ambient temperature every measurement is taken at. */
    static constexpr double kCelsius = 20.0;

    /**
     * @param module the module under test (sampled cells' data is
     *               destroyed)
     */
    explicit RetentionProfiler(dram::DramModule &module)
        : module_(module)
    {}

    /**
     * Measure the retention of one cell by binary search over
     * power-off times: charge the cell, power off, read back; repeat
     * narrowing the interval to kTolerance.
     */
    CellRetention measure(Addr addr, unsigned bit);

    /**
     * Profile @p samples evenly spaced cells in [base, base+length)
     * and return them sorted by retention, longest first.
     */
    std::vector<CellRetention>
    profileRegion(Addr base, std::uint64_t length,
                  std::uint64_t samples);

    /**
     * The @p count longest-retention cells of a region: the canary
     * candidates for the cold-boot guard.
     */
    std::vector<CellRetention>
    findCanaries(Addr base, std::uint64_t length, std::uint64_t count,
                 std::uint64_t samples = 4096);

  private:
    /** True iff the cell decayed during a power-off of @p wait. */
    bool decaysWithin(Addr addr, unsigned bit, SimTime wait);

    dram::DramModule &module_;
};

} // namespace ctamem::profile

#endif // CTAMEM_PROFILE_RETENTION_PROFILER_HH
