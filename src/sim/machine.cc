#include "sim/machine.hh"

#include <algorithm>

#include "defense/registry.hh"

namespace ctamem::sim {

using defense::DefenseKind;

Machine::Machine(const MachineConfig &config) : config_(config)
{
    const defense::DefenseSpec &spec =
        defense::defenseSpec(config.defense);

    kernel::KernelConfig kconfig;
    kconfig.dram.capacity = config.memBytes;
    kconfig.dram.rowBytes = config.rowBytes;
    kconfig.dram.banks = config.banks;
    kconfig.dram.cellMap =
        dram::CellTypeMap::alternating(config.cellPeriod);
    kconfig.dram.errors.pf = config.pf;
    kconfig.dram.seed = config.seed;

    if (spec.configureKernel)
        spec.configureKernel(config, kconfig);
    kconfig.arch = &paging::resolveArch(config.arch, config.granule);

    kernel_ = std::make_unique<kernel::Kernel>(kconfig);

    // Campaign workloads (spray, Drammer arenas) touch most of the
    // module, so pre-size the frame table up front instead of paying
    // for its rehash cascade mid-sweep.  Deliberately NOT done in
    // DramModule itself: sparse consumers (the page-walk benches,
    // small kernel tests) are faster with the load-grown table, whose
    // bucket array stays cache-resident.
    kernel_->dram().store().reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(config.memBytes / pageSize, 32768)));

    if (spec.makeObserver)
        observer_ = spec.makeObserver(config);

    engine_ = std::make_unique<dram::RowHammerEngine>(
        kernel_->dram(), observer_.get());
}

defense::AnvilObserver *
Machine::anvil()
{
    if (config_.defense != DefenseKind::Anvil)
        return nullptr;
    return static_cast<defense::AnvilObserver *>(observer_.get());
}

attack::AttackResult
Machine::runAttack(AttackKind kind)
{
    attack::AttackParams params;
    params.defense = config_.defense;
    params.defenseParams = config_;
    params.fuzz = config_.fuzz;
    return attack::attackSpec(kind).run(*kernel_, *engine_, params);
}

} // namespace ctamem::sim
