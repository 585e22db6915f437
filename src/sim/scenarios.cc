#include "sim/scenarios.hh"

namespace ctamem::sim::scenarios {

using defense::DefenseKind;

namespace {

std::vector<MachineConfig>
configsFor(const std::vector<DefenseKind> &defenses)
{
    std::vector<MachineConfig> configs;
    configs.reserve(defenses.size());
    for (const DefenseKind defense : defenses) {
        MachineConfig config;
        config.defense = defense;
        configs.push_back(config);
    }
    return configs;
}

} // namespace

std::vector<DefenseKind>
table1Defenses()
{
    return {
        DefenseKind::None, DefenseKind::RefreshBoost,
        DefenseKind::Para, DefenseKind::Anvil,
        DefenseKind::Catt, DefenseKind::Zebram,
        DefenseKind::Cta,  DefenseKind::CtaRestricted,
    };
}

std::vector<AttackKind>
table1Attacks()
{
    return {
        AttackKind::ProjectZero,       AttackKind::Drammer,
        AttackKind::Algorithm1,        AttackKind::RemapBypass,
        AttackKind::DoubleOwnedBypass,
    };
}

std::vector<MachineConfig>
table1Configs()
{
    return configsFor(table1Defenses());
}

Campaign
paperDefault()
{
    Campaign campaign;
    campaign.addGrid(table1Configs(), table1Attacks());
    return campaign;
}

Campaign
attackTime()
{
    Campaign campaign;
    campaign.addGrid(
        configsFor({DefenseKind::None, DefenseKind::Cta}),
        {AttackKind::ProjectZero, AttackKind::Drammer,
         AttackKind::Algorithm1});
    return campaign;
}

std::vector<PricingPoint>
pricingGrid()
{
    std::vector<PricingPoint> grid;
    for (const std::uint64_t mem : {8 * GiB, 16 * GiB, 32 * GiB})
        for (const std::uint64_t ptp : {32 * MiB, 64 * MiB})
            grid.push_back({mem, ptp});
    return grid;
}

std::vector<unsigned>
restrictionDepths()
{
    return {0, 1, 2, 3, 4};
}

std::vector<std::uint64_t>
interleavePeriods()
{
    return {64, 128, 256, 512, 1024};
}

std::vector<ScreeningCase>
screeningCases()
{
    return {
        {5e-2, false, false},
        {5e-2, true, false},
        {5e-3, true, true},
    };
}

kernel::KernelConfig
screeningKernelConfig(const ScreeningCase &c)
{
    kernel::KernelConfig config;
    config.dram.capacity = 512 * MiB;
    config.dram.rowBytes = 128 * KiB;
    config.dram.banks = 1;
    config.dram.cellMap = dram::CellTypeMap::alternating(512);
    config.dram.errors.pf = c.pf;
    config.dram.seed = 77;
    config.policy = kernel::AllocPolicy::Cta;
    config.cta.ptpBytes = 4 * MiB;
    config.cta.multiLevelZones = c.multiLevelZones;
    config.cta.screenPageSizeBit = c.screenPageSizeBit;
    return config;
}

std::vector<LwmZoneCase>
lwmZoneCases()
{
    return {
        {"true-cells (CTA)", dram::CellType::True},
        {"anti-cells (LWM only)", dram::CellType::Anti},
    };
}

} // namespace ctamem::sim::scenarios
