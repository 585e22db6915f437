/**
 * @file
 * Concrete RowHammer mitigation observers: PARA, refresh boosting,
 * and ANVIL-style detection.
 */

#ifndef CTAMEM_DEFENSE_OBSERVERS_HH
#define CTAMEM_DEFENSE_OBSERVERS_HH

#include <map>

#include "common/rng.hh"
#include "defense/defense.hh"

namespace ctamem::defense {

/**
 * PARA (Kim et al. ISCA'14): on every row close, refresh the adjacent
 * rows with probability p.  Over the ~1.3M activations of one hammer
 * burst the victims are refreshed with probability 1 - (1-p)^N, which
 * is essentially 1 for practical p — PARA works, at the price of a
 * memory-controller change legacy systems cannot get (the paper's
 * argument for CTA).
 */
class ParaObserver : public ObserverDefense
{
  public:
    explicit ParaObserver(double probability = 0.001,
                          std::uint64_t seed = seeds::kParaStream)
        : probability_(probability), rng_(seed)
    {}

    bool onHammer(const dram::DisturbanceEvent &event) override;

  private:
    double probability_;
    Rng rng_;
};

/**
 * Refresh-rate boosting: refreshing k times faster shortens the
 * hammer window, so only bursts that fit k times the activation
 * budget trip cells.  Modeled as suppressing each aggressor burst
 * unless a 1-in-k deterministic chance lets it through — preserving
 * the paper's observation that even high rates carry no guarantee.
 */
class RefreshBoostObserver : public ObserverDefense
{
  public:
    explicit RefreshBoostObserver(unsigned factor = 4,
                                  std::uint64_t seed =
                                      seeds::kRefreshBoostStream)
        : factor_(factor ? factor : 1), rng_(seed)
    {}

    bool onHammer(const dram::DisturbanceEvent &event) override;

  private:
    unsigned factor_;
    Rng rng_;
};

/**
 * ANVIL-style detection (Aweke et al. ASPLOS'16): watch per-row
 * activation counts through performance counters; rows exceeding the
 * threshold within a window get their neighbours refreshed and the
 * event is flagged.  Being heuristic, benign row-thrashing workloads
 * can trip it too (false positives), which the benches measure via
 * noteBenignActivity().
 */
class AnvilObserver : public ObserverDefense
{
  public:
    explicit AnvilObserver(std::uint64_t threshold = 200'000,
                           std::uint64_t window_passes = 8)
        : threshold_(threshold), windowPasses_(window_passes)
    {}

    bool onHammer(const dram::DisturbanceEvent &event) override;

    /** Feed benign access activity; returns true on false positive. */
    bool noteBenignActivity(std::uint64_t bank, std::uint64_t row,
                            std::uint64_t activations);

    bool triggered() const { return detections_ > 0; }
    std::uint64_t detections() const { return detections_; }
    std::uint64_t falsePositives() const { return falsePositives_; }

  private:
    bool observe(std::uint64_t bank, std::uint64_t row,
                 std::uint64_t activations);
    void decayWindow();

    std::uint64_t threshold_;
    std::uint64_t windowPasses_;
    std::uint64_t passCount_ = 0;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        counts_;
    std::uint64_t detections_ = 0;
    std::uint64_t falsePositives_ = 0;
};

} // namespace ctamem::defense

#endif // CTAMEM_DEFENSE_OBSERVERS_HH
