/**
 * @file
 * In-DRAM Target Row Refresh with probabilistic activation sampling —
 * the mitigation class shipping in DDR4 devices, and the one
 * Blacksmith-style frequency/phase patterns are designed to slip
 * past (Jattke et al., "Blacksmith: Scalable Rowhammering in the
 * Frequency Domain").
 *
 * The device keeps a handful of sampler slots per bank.  Within each
 * REF-to-REF window it can only observe the first few activate
 * commands (a fixed sampling window: real TRR implementations latch
 * early ACTs because the sampler logic shares the command decoder);
 * observed aggressors fill the slots by reservoir sampling, so every
 * *eligible* activation has an equal chance of being held when REF
 * arrives.  At REF, the rows adjacent to each sampled aggressor get a
 * targeted refresh — wiping whatever disturbance pressure they
 * carried — and the reservoir resets for the next window.
 *
 * The bypass the fuzzer searches for is exactly the published one:
 * lead each interval with decoy activations that monopolize the
 * sampling window, then hammer the real aggressor pair in later
 * phases where the sampler is blind.  A uniform hammer pass, by
 * contrast, is a saturated window: each aggressor's burst leads its
 * interval and is held at the REF that closes it, so those passes
 * are reliably refreshed away.
 */

#ifndef CTAMEM_DEFENSE_TRR_SAMPLER_HH
#define CTAMEM_DEFENSE_TRR_SAMPLER_HH

#include <vector>

#include "common/rng.hh"
#include "defense/defense.hh"

namespace ctamem::defense {

/** In-DRAM TRR sampler observer. */
class TrrSamplerObserver : public ObserverDefense
{
  public:
    explicit TrrSamplerObserver(unsigned samplers = 4,
                                unsigned window = 8,
                                std::uint64_t seed = 0x7225)
        : samplers_(samplers ? samplers : 1),
          window_(window ? window : 1), rng_(seed)
    {
        sampled_.reserve(samplers_);
    }

    bool onHammer(const dram::DisturbanceEvent &event) override;

    void onRef(std::vector<std::uint64_t> &refresh_rows) override;

  private:
    unsigned samplers_; //!< reservoir slots
    unsigned window_;   //!< eligible burst phases per interval
    Rng rng_;
    std::vector<std::uint64_t> sampled_; //!< held aggressor rows
    std::uint64_t eligibleSeen_ = 0;     //!< eligible bursts this window
};

} // namespace ctamem::defense

#endif // CTAMEM_DEFENSE_TRR_SAMPLER_HH
