#include "defense/trr_sampler.hh"

namespace ctamem::defense {

bool
TrrSamplerObserver::onHammer(const dram::DisturbanceEvent &event)
{
    if (event.phase >= window_)
        return false; // sampler is blind past its latch window

    ++eligibleSeen_;
    if (sampled_.size() < samplers_) {
        sampled_.push_back(event.aggressorRow);
    } else {
        // Reservoir sampling: each eligible burst ends up held with
        // probability samplers / eligibleSeen.
        const std::uint64_t j = rng_.below(eligibleSeen_);
        if (j < samplers_)
            sampled_[j] = event.aggressorRow;
    }
    return false; // sampling never blocks the activation itself
}

void
TrrSamplerObserver::onRef(std::vector<std::uint64_t> &refresh_rows)
{
    for (const std::uint64_t aggressor : sampled_) {
        if (aggressor > 0)
            refresh_rows.push_back(aggressor - 1);
        refresh_rows.push_back(aggressor + 1);
        ++mitigations_;
    }
    sampled_.clear();
    eligibleSeen_ = 0;
}

} // namespace ctamem::defense
