#include "defense/registry.hh"

#include "defense/observers.hh"
#include "defense/softtrr.hh"
#include "defense/trr_sampler.hh"

namespace ctamem::defense {

namespace {

using kernel::AllocPolicy;
using kernel::KernelConfig;

/** Boot the CTA allocation policy with the machine's zone knobs. */
void
configureCta(const DefenseParams &params, KernelConfig &kconfig)
{
    kconfig.policy = AllocPolicy::Cta;
    kconfig.cta.ptpBytes = params.ptpBytes;
    kconfig.cta.multiLevelZones = params.ctaMultiLevelZones;
    kconfig.cta.screenPageSizeBit = params.ctaScreenPageSize;
}

} // namespace

/**
 * The defense families the paper compares (Table 1 columns), then
 * the two TRR-style observers.  SoftTRR and the in-DRAM TRR sampler
 * boot the Standard policy: one is software-only, the other lives in
 * the DRAM device.
 */
constexpr std::array<DefenseSpec, kDefenseKinds> kDefenses{{
    {DefenseKind::None, "none", "none", nullptr, nullptr},
    {DefenseKind::Cta, "cta", "CTA", configureCta, nullptr},
    {DefenseKind::CtaRestricted, "cta-restricted", "CTA+restriction",
     [](const DefenseParams &params, KernelConfig &kconfig) {
         configureCta(params, kconfig);
         kconfig.cta.minIndicatorZeros = 2;
     },
     nullptr},
    {DefenseKind::Catt, "catt", "CATT",
     [](const DefenseParams &, KernelConfig &kconfig) {
         kconfig.policy = AllocPolicy::Catt;
     },
     nullptr},
    {DefenseKind::Zebram, "zebram", "ZebRAM-lite",
     [](const DefenseParams &, KernelConfig &kconfig) {
         kconfig.policy = AllocPolicy::Zebram;
     },
     nullptr},
    {DefenseKind::RefreshBoost, "refresh", "refresh-boost", nullptr,
     [](const DefenseParams &params)
         -> std::unique_ptr<ObserverDefense> {
         return std::make_unique<RefreshBoostObserver>(
             params.refreshBoostFactor,
             deriveSeed(params.seed, seeds::kRefreshBoostStream));
     }},
    {DefenseKind::Para, "para", "PARA", nullptr,
     [](const DefenseParams &params)
         -> std::unique_ptr<ObserverDefense> {
         return std::make_unique<ParaObserver>(
             params.paraProbability,
             deriveSeed(params.seed, seeds::kParaStream));
     }},
    {DefenseKind::Anvil, "anvil", "ANVIL", nullptr,
     [](const DefenseParams &params)
         -> std::unique_ptr<ObserverDefense> {
         return std::make_unique<AnvilObserver>(params.anvilThreshold);
     }},
    {DefenseKind::SoftTrr, "softtrr", "SoftTRR", nullptr,
     [](const DefenseParams &params)
         -> std::unique_ptr<ObserverDefense> {
         return std::make_unique<SoftTrrObserver>(
             params.softTrrThreshold, params.softTrrTracked);
     }},
    {DefenseKind::TrrSampler, "trr", "TRR-sampler", nullptr,
     [](const DefenseParams &params)
         -> std::unique_ptr<ObserverDefense> {
         return std::make_unique<TrrSamplerObserver>(
             params.trrSamplers, params.trrWindow,
             deriveSeed(params.seed, seeds::kTrrSamplerStream));
     }},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < kDefenses.size(); ++i) {
            if (static_cast<std::size_t>(kDefenses[i].kind) != i)
                return false;
        }
        return true;
    }(),
    "kDefenses needs one row per DefenseKind, in enum order");

const DefenseSpec &
defenseSpec(DefenseKind kind)
{
    return kDefenses.at(static_cast<std::size_t>(kind));
}

const char *
defenseName(DefenseKind kind)
{
    return defenseSpec(kind).display;
}

const char *
defenseToken(DefenseKind kind)
{
    return defenseSpec(kind).name;
}

std::optional<DefenseKind>
parseDefenseKind(std::string_view name)
{
    for (const DefenseSpec &spec : kDefenses) {
        if (name == spec.name || name == spec.display)
            return spec.kind;
    }
    return std::nullopt;
}

} // namespace ctamem::defense
