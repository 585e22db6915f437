/**
 * @file
 * SoftTRR: a software-only target-row-refresh defense (Zhang et al.,
 * "SoftTRR: Protect Page Tables against Rowhammer Attacks using
 * Software-only Target Row Refresh").
 *
 * The kernel samples row activations through the PMU and keeps a
 * bounded table of per-row counters; when a tracked row's activation
 * count crosses the refresh threshold within the decay window, the
 * adjacent (victim) rows are re-read — refreshing their cells — and
 * the counter resets.  Modeled here as a DisturbanceObserver: one
 * `onHammer` call is one sampled burst, a triggered refresh
 * suppresses that burst.
 *
 * The reproduction-scale simplification: real SoftTRR tracks only
 * rows adjacent to page-table pages; this observer tracks every
 * hammered row through the same bounded counter table (lowest-count
 * eviction), which is conservative for the single-machine sweeps the
 * benches run.  Its residual weakness is the same as the original's:
 * an attacker interleaving more aggressor rows than the table tracks
 * can evict counters before they trip.
 *
 * Sweeps reach it through its row in the defense table
 * (defense/registry.cc), like every other defense.
 */

#ifndef CTAMEM_DEFENSE_SOFTTRR_HH
#define CTAMEM_DEFENSE_SOFTTRR_HH

#include <vector>

#include "defense/defense.hh"

namespace ctamem::defense {

/** Software target-row-refresh observer. */
class SoftTrrObserver : public ObserverDefense
{
  public:
    explicit SoftTrrObserver(std::uint64_t threshold = 500'000,
                             std::uint64_t max_tracked = 32)
        : threshold_(threshold ? threshold : 1),
          maxTracked_(max_tracked ? max_tracked : 1)
    {}

    bool onHammer(const dram::DisturbanceEvent &event) override;

    /** Rows currently holding a counter slot. */
    std::size_t trackedRows() const { return table_.size(); }

    /** Counter slots recycled because the table was full. */
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Slot
    {
        std::uint64_t key;   //!< (bank, device row) combined
        std::uint64_t count; //!< activations since the last refresh
    };

    std::uint64_t threshold_;
    std::uint64_t maxTracked_;
    std::vector<Slot> table_;
    std::uint64_t evictions_ = 0;
};

} // namespace ctamem::defense

#endif // CTAMEM_DEFENSE_SOFTTRR_HH
