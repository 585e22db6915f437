#include "attack/registry.hh"

#include "attack/algorithm1.hh"
#include "attack/catt_bypass.hh"
#include "attack/drammer.hh"
#include "attack/projectzero.hh"
#include "attack/sync_hammer.hh"

namespace ctamem::attack {

constexpr std::array<AttackSpec, kAttackKinds> kAttacks{{
    {AttackKind::ProjectZero, "projectzero", "PTE spray (ProjectZero)",
     [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
        const AttackParams &) { return runProjectZero(kernel, engine); }},
    {AttackKind::Drammer, "drammer", "Drammer templating",
     [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
        const AttackParams &) { return runDrammer(kernel, engine); }},
    {AttackKind::Algorithm1, "algorithm1", "Algorithm 1 (anti-CTA)",
     [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
        const AttackParams &) {
         // Algorithm 1 is defined against CTA machines only; on
         // others report the strictly stronger ProjectZero result.
         return kernel.ptpLayout() ? runAlgorithm1(kernel, engine) :
                                     runProjectZero(kernel, engine);
     }},
    {AttackKind::RemapBypass, "remap", "row-remap bypass",
     [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
        const AttackParams &) { return runRemapBypass(kernel, engine); }},
    {AttackKind::DoubleOwnedBypass, "doubleowned", "double-owned bypass",
     [](kernel::Kernel &kernel, dram::RowHammerEngine &engine,
        const AttackParams &) {
         return runDoubleOwnedBypass(kernel, engine);
     }},
    {AttackKind::UniformHammer, "uniform", "uniform hammer",
     runUniformHammer},
    {AttackKind::SyncHammer, "sync_hammer", "REF-sync hammer",
     runSyncHammer},
    {AttackKind::FuzzHammer, "fuzz_hammer",
     "fuzzed hammer (Blacksmith-style)", runFuzzHammer},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < kAttacks.size(); ++i) {
            if (static_cast<std::size_t>(kAttacks[i].kind) != i)
                return false;
        }
        return true;
    }(),
    "kAttacks needs one row per AttackKind, in enum order");

const AttackSpec &
attackSpec(AttackKind kind)
{
    return kAttacks.at(static_cast<std::size_t>(kind));
}

const char *
attackName(AttackKind kind)
{
    return attackSpec(kind).display;
}

const char *
attackToken(AttackKind kind)
{
    return attackSpec(kind).name;
}

std::optional<AttackKind>
parseAttackKind(std::string_view name)
{
    for (const AttackSpec &spec : kAttacks) {
        if (name == spec.name || name == spec.display)
            return spec.kind;
    }
    return std::nullopt;
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Escalated: return "ESCALATED";
      case Outcome::SelfReference: return "SELF-REFERENCE";
      case Outcome::KernelCorrupted: return "KERNEL-CORRUPTED";
      case Outcome::NoCorruption: return "NO-CORRUPTION";
      case Outcome::Detected: return "DETECTED";
      case Outcome::Blocked: return "BLOCKED";
    }
    return "?";
}

std::optional<Outcome>
parseOutcome(std::string_view name)
{
    for (const Outcome outcome :
         {Outcome::Escalated, Outcome::SelfReference,
          Outcome::KernelCorrupted, Outcome::NoCorruption,
          Outcome::Detected, Outcome::Blocked}) {
        if (name == outcomeName(outcome))
            return outcome;
    }
    return std::nullopt;
}

} // namespace ctamem::attack
