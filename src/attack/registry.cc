#include "attack/registry.hh"

#include "attack/algorithm1.hh"
#include "attack/catt_bypass.hh"
#include "attack/drammer.hh"
#include "attack/projectzero.hh"
#include "attack/sync_hammer.hh"
#include "common/log.hh"

namespace ctamem::attack {

namespace {

void
registerBuiltinAttacks(Registry &registry)
{
    registry.add(AttackSpec{
        AttackKind::ProjectZero, "projectzero",
        "PTE spray (ProjectZero)",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &) {
            return runProjectZero(kernel, engine);
        }});
    registry.add(AttackSpec{
        AttackKind::Drammer, "drammer", "Drammer templating",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &) {
            DrammerConfig config;
            config.arenaPages = 1024;
            return runDrammer(kernel, engine, config);
        }});
    registry.add(AttackSpec{
        AttackKind::Algorithm1, "algorithm1", "Algorithm 1 (anti-CTA)",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &) {
            if (!kernel.ptpLayout()) {
                // Algorithm 1 is defined against CTA machines only;
                // on others report the strictly stronger ProjectZero
                // result.
                return runProjectZero(kernel, engine);
            }
            return runAlgorithm1(kernel, engine);
        }});
    registry.add(AttackSpec{
        AttackKind::RemapBypass, "remap", "row-remap bypass",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &) {
            return runRemapBypass(kernel, engine);
        }});
    registry.add(AttackSpec{
        AttackKind::DoubleOwnedBypass, "doubleowned",
        "double-owned bypass",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &) {
            return runDoubleOwnedBypass(kernel, engine);
        }});
    registry.add(AttackSpec{
        AttackKind::UniformHammer, "uniform", "uniform hammer",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &params) {
            return runUniformHammer(kernel, engine, params);
        }});
    registry.add(AttackSpec{
        AttackKind::SyncHammer, "sync_hammer", "REF-sync hammer",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &params) {
            return runSyncHammer(kernel, engine, params);
        }});
    registry.add(AttackSpec{
        AttackKind::FuzzHammer, "fuzz_hammer",
        "fuzzed hammer (Blacksmith-style)",
        [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
           const AttackParams &params) {
            return runFuzzHammer(kernel, engine, params);
        }});
}

} // namespace

Registry &
Registry::instance()
{
    static Registry *registry = [] {
        auto *r = new Registry;
        registerBuiltinAttacks(*r);
        return r;
    }();
    return *registry;
}

void
Registry::add(AttackSpec spec)
{
    for (const auto &existing : specs_) {
        if (existing->kind == spec.kind ||
            existing->name == spec.name) {
            fatal("attack registry: duplicate registration of \"",
                  spec.name, "\"");
        }
    }
    specs_.push_back(std::make_unique<AttackSpec>(std::move(spec)));
}

const AttackSpec *
Registry::find(AttackKind kind) const
{
    for (const auto &spec : specs_)
        if (spec->kind == kind)
            return spec.get();
    return nullptr;
}

const AttackSpec *
Registry::find(std::string_view name) const
{
    for (const auto &spec : specs_)
        if (spec->name == name || spec->display == name)
            return spec.get();
    return nullptr;
}

const char *
attackName(AttackKind kind)
{
    const AttackSpec *spec = Registry::instance().find(kind);
    return spec ? spec->display.c_str() : "?";
}

const char *
attackToken(AttackKind kind)
{
    const AttackSpec *spec = Registry::instance().find(kind);
    return spec ? spec->name.c_str() : "?";
}

std::optional<AttackKind>
parseAttackKind(std::string_view name)
{
    const AttackSpec *spec = Registry::instance().find(name);
    if (!spec)
        return std::nullopt;
    return spec->kind;
}

} // namespace ctamem::attack
