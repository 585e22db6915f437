#include "defense/registry.hh"

#include "common/log.hh"
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

/**
 * The defense families the paper compares (Table 1 columns), exactly
 * as the old `Machine::Machine` switch built them.
 */
void
registerBuiltinDefenses(Registry &registry)
{
    registry.add(DefenseSpec{DefenseKind::None, "none", "none",
                             nullptr, nullptr});

    registry.add(DefenseSpec{DefenseKind::Cta, "cta", "CTA",
                             configureCta, nullptr});

    registry.add(DefenseSpec{
        DefenseKind::CtaRestricted, "cta-restricted",
        "CTA+restriction",
        [](const DefenseParams &params, KernelConfig &kconfig) {
            configureCta(params, kconfig);
            kconfig.cta.minIndicatorZeros = 2;
        },
        nullptr});

    registry.add(DefenseSpec{
        DefenseKind::Catt, "catt", "CATT",
        [](const DefenseParams &, KernelConfig &kconfig) {
            kconfig.policy = AllocPolicy::Catt;
        },
        nullptr});

    registry.add(DefenseSpec{
        DefenseKind::Zebram, "zebram", "ZebRAM-lite",
        [](const DefenseParams &, KernelConfig &kconfig) {
            kconfig.policy = AllocPolicy::Zebram;
        },
        nullptr});

    registry.add(DefenseSpec{
        DefenseKind::RefreshBoost, "refresh", "refresh-boost",
        nullptr,
        [](const DefenseParams &params) {
            return std::make_unique<RefreshBoostObserver>(
                params.refreshBoostFactor,
                deriveSeed(params.seed, seeds::kRefreshBoostStream));
        }});

    registry.add(DefenseSpec{
        DefenseKind::Para, "para", "PARA", nullptr,
        [](const DefenseParams &params) {
            return std::make_unique<ParaObserver>(
                params.paraProbability,
                deriveSeed(params.seed, seeds::kParaStream));
        }});

    registry.add(DefenseSpec{
        DefenseKind::Anvil, "anvil", "ANVIL", nullptr,
        [](const DefenseParams &params) {
            return std::make_unique<AnvilObserver>(
                params.anvilThreshold);
        }});
}

} // namespace

Registry &
Registry::instance()
{
    static Registry *registry = [] {
        auto *r = new Registry;
        registerBuiltinDefenses(*r);
        // Extension defenses hook in here — each registers itself
        // against the table without touching the sim/kernel layers.
        detail::registerSoftTrrDefense(*r);
        detail::registerTrrSamplerDefense(*r);
        return r;
    }();
    return *registry;
}

void
Registry::add(DefenseSpec spec)
{
    for (const auto &existing : specs_) {
        if (existing->kind == spec.kind ||
            existing->name == spec.name) {
            fatal("defense registry: duplicate registration of \"",
                  spec.name, "\"");
        }
    }
    specs_.push_back(std::make_unique<DefenseSpec>(std::move(spec)));
}

const DefenseSpec *
Registry::find(DefenseKind kind) const
{
    for (const auto &spec : specs_)
        if (spec->kind == kind)
            return spec.get();
    return nullptr;
}

const DefenseSpec *
Registry::find(std::string_view name) const
{
    for (const auto &spec : specs_)
        if (spec->name == name || spec->display == name)
            return spec.get();
    return nullptr;
}

const char *
defenseName(DefenseKind kind)
{
    const DefenseSpec *spec = Registry::instance().find(kind);
    return spec ? spec->display.c_str() : "?";
}

const char *
defenseToken(DefenseKind kind)
{
    const DefenseSpec *spec = Registry::instance().find(kind);
    return spec ? spec->name.c_str() : "?";
}

std::optional<DefenseKind>
parseDefenseKind(std::string_view name)
{
    const DefenseSpec *spec = Registry::instance().find(name);
    if (!spec)
        return std::nullopt;
    return spec->kind;
}

} // namespace ctamem::defense
