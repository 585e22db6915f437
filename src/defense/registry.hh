/**
 * @file
 * Name-keyed defense factory registry.
 *
 * A defense is two optional factories: a kernel-config hook (pick the
 * AllocPolicy and CTA tunables the machine boots with) and an
 * observer factory (the memory-controller / software mitigation side
 * plugged into the hammer engine).  `Machine::Machine` dispatches
 * through this table instead of switching on `DefenseKind`, so a new
 * defense — SoftTRR is the proof (defense/softtrr.*) — is registered
 * here without touching machine.cc or kernel.cc.
 */

#ifndef CTAMEM_DEFENSE_REGISTRY_HH
#define CTAMEM_DEFENSE_REGISTRY_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "defense/defense.hh"
#include "kernel/kernel.hh"

namespace ctamem::defense {

/**
 * Every tunable a defense factory may consult.  This is the one
 * declaration of each knob: the sim layer's MachineConfig derives
 * from it, so the defense registry stays below sim in the layer
 * order without a second copy of the fields.
 */
struct DefenseParams
{
    std::uint64_t seed = seeds::kMachine; //!< machine seed (streams
                                          //!< are derived per defense)
    std::uint64_t ptpBytes = 4 * MiB;     //!< for the CTA defenses
    bool ctaMultiLevelZones = false;      //!< per-level PTP zoning
    bool ctaScreenPageSize = false;       //!< PS-bit frame screening
    unsigned refreshBoostFactor = 4;      //!< for RefreshBoost
    double paraProbability = 0.001;       //!< for PARA
    std::uint64_t anvilThreshold = 1'000'000; //!< for ANVIL
    std::uint64_t softTrrThreshold = 500'000; //!< for SoftTRR
    std::uint64_t softTrrTracked = 32;        //!< for SoftTRR
    unsigned trrSamplers = 4;                 //!< for TrrSampler
    unsigned trrWindow = 8;                   //!< for TrrSampler

    bool operator==(const DefenseParams &) const = default;
};

/** One registered defense. */
struct DefenseSpec
{
    DefenseKind kind = DefenseKind::None;
    std::string name;    //!< canonical manifest token ("cta")
    std::string display; //!< table heading ("CTA")

    /**
     * Adjust the kernel boot configuration (allocation policy, CTA
     * tunables).  Null means "boot the vulnerable Standard policy".
     */
    std::function<void(const DefenseParams &, kernel::KernelConfig &)>
        configureKernel;

    /**
     * Build the mitigation observer plugged into the hammer engine.
     * Null means the defense has no observer side.
     */
    std::function<std::unique_ptr<ObserverDefense>(
        const DefenseParams &)>
        makeObserver;
};

/** The process-wide defense table (built-ins self-register). */
class Registry
{
  public:
    static Registry &instance();

    /** Register a spec; fatals on a duplicate kind or name. */
    void add(DefenseSpec spec);

    const DefenseSpec *find(DefenseKind kind) const;
    /** Lookup by canonical token or display name. */
    const DefenseSpec *find(std::string_view name) const;

    /** All specs, in registration order (stable addresses). */
    const std::vector<std::unique_ptr<DefenseSpec>> &all() const
    {
        return specs_;
    }

  private:
    Registry() = default;

    std::vector<std::unique_ptr<DefenseSpec>> specs_;
};

/** Canonical manifest token (e.g. "cta-restricted"). */
const char *defenseToken(DefenseKind kind);

} // namespace ctamem::defense

#endif // CTAMEM_DEFENSE_REGISTRY_HH
