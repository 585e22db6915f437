/**
 * @file
 * The defense table: one constant row per DefenseKind.
 *
 * A defense is two optional factories: a kernel-config hook (pick the
 * AllocPolicy and CTA tunables the machine boots with) and an
 * observer factory (the memory-controller / software mitigation side
 * plugged into the hammer engine).  `Machine::Machine` dispatches
 * through this table instead of switching on `DefenseKind`, so a new
 * defense is one enumerator plus one row, without touching machine.cc
 * or kernel.cc.
 */

#ifndef CTAMEM_DEFENSE_REGISTRY_HH
#define CTAMEM_DEFENSE_REGISTRY_HH

#include <array>
#include <memory>

#include "common/rng.hh"
#include "defense/defense.hh"
#include "kernel/kernel.hh"

namespace ctamem::defense {

/**
 * Every tunable a defense factory may consult.  This is the one
 * declaration of each knob: the sim layer's MachineConfig derives
 * from it, so the defense table stays below sim in the layer order
 * without a second copy of the fields.
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

/** Adjusts the kernel boot configuration (policy, CTA tunables). */
using KernelConfigurer = void (*)(const DefenseParams &,
                                  kernel::KernelConfig &);

/** Builds the mitigation observer plugged into the hammer engine. */
using ObserverFactory =
    std::unique_ptr<ObserverDefense> (*)(const DefenseParams &);

/** One row of the defense table. */
struct DefenseSpec
{
    DefenseKind kind;
    const char *name;    //!< canonical manifest token ("cta")
    const char *display; //!< table heading ("CTA")
    /** Null means "boot the vulnerable Standard policy". */
    KernelConfigurer configureKernel;
    /** Null means the defense has no observer side. */
    ObserverFactory makeObserver;
};

/**
 * Every defense, one row per DefenseKind in enum order; the build
 * fails (a static_assert next to the definition) when a row is
 * missing or out of order.
 */
extern const std::array<DefenseSpec, kDefenseKinds> kDefenses;

/** The row of @p kind. */
const DefenseSpec &defenseSpec(DefenseKind kind);

/** Canonical manifest token (e.g. "cta-restricted"). */
const char *defenseToken(DefenseKind kind);

} // namespace ctamem::defense

#endif // CTAMEM_DEFENSE_REGISTRY_HH
