/**
 * @file
 * Machine assembly: one simulated computer = DRAM module + kernel
 * (allocation policy) + optional memory-controller mitigation +
 * hammer engine, plus the single attack dispatch the benches,
 * examples and the Campaign engine program against.
 *
 * Defense and attack construction both go through the constant
 * tables (defense::kDefenses, attack::kAttacks): the machine holds no
 * per-kind switch, so a new defense or attack is one enumerator plus
 * one table row, and manifests name it by its token.
 */

#ifndef CTAMEM_SIM_MACHINE_HH
#define CTAMEM_SIM_MACHINE_HH

#include <cstdint>
#include <memory>

#include "attack/registry.hh"
#include "attack/result.hh"
#include "cta/config.hh"
#include "defense/observers.hh"
#include "defense/registry.hh"
#include "dram/hammer.hh"
#include "fuzz/fuzzer.hh"
#include "kernel/kernel.hh"
#include "paging/arch.hh"

namespace ctamem::sim {

/** The attack table lives in the attack layer; same spelling here. */
using attack::AttackKind;
using attack::attackName;
using attack::attackToken;
using attack::parseAttackKind;

/**
 * Everything needed to build one machine.  The defense knobs (and
 * the machine seed they derive streams from) are inherited from
 * defense::DefenseParams, their one declaration.
 */
struct MachineConfig : defense::DefenseParams
{
    std::uint64_t memBytes = 256 * MiB;
    std::uint64_t rowBytes = 128 * KiB;
    std::uint64_t banks = 1;
    std::uint64_t cellPeriod = 512; //!< alternating stripe, in rows
    double pf = 1e-3;               //!< boosted for simulation scale

    defense::DefenseKind defense = defense::DefenseKind::None;

    /**
     * REF-clock + pattern-search configuration consumed by the
     * timing-aware attacks (uniform / sync_hammer / fuzz_hammer).
     */
    fuzz::FuzzParams fuzz;

    /**
     * Paging architecture the machine boots with.  The (arch,
     * granule) pair resolves to one of the built-in descriptors via
     * paging::resolveArch; the defaults are the historical x86-64
     * machine and serialize to nothing, so schema-v3 manifests keep
     * their exact meaning and cache keys.
     */
    paging::Isa arch = paging::Isa::X86_64;
    std::uint64_t granule = 4 * KiB;

    bool operator==(const MachineConfig &) const = default;
};

/** One simulated computer. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    kernel::Kernel &kernel() { return *kernel_; }
    dram::DramModule &dram() { return kernel_->dram(); }
    dram::RowHammerEngine &engine() { return *engine_; }
    const MachineConfig &config() const { return config_; }
    defense::DefenseKind defense() const { return config_.defense; }

    /** The mitigation observer, when the defense has one. */
    defense::ObserverDefense *observer() { return observer_.get(); }

    /** The ANVIL detector, when that defense is active. */
    defense::AnvilObserver *anvil();

    /**
     * Run one attack against this machine — the single dispatch the
     * Campaign engine and every bench program against.
     */
    attack::AttackResult runAttack(AttackKind kind);

  private:
    MachineConfig config_;
    std::unique_ptr<kernel::Kernel> kernel_;
    std::unique_ptr<defense::ObserverDefense> observer_;
    std::unique_ptr<dram::RowHammerEngine> engine_;
};

} // namespace ctamem::sim

#endif // CTAMEM_SIM_MACHINE_HH
