#include "attack/projectzero.hh"

#include "attack/exploit.hh"
#include "common/log.hh"

namespace ctamem::attack {

using kernel::Kernel;

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

AttackResult
runProjectZero(Kernel &kernel, dram::RowHammerEngine &engine,
               const ProjectZeroConfig &config)
{
    AttackResult result;
    const int pid = kernel.createProcess("pz-attacker");
    AttackerContext ctx(kernel, engine, pid);

    // Step 1: spray page tables with interleaved aggressor pages.
    const int fd = kernel.createFile(config.bytesPerMapping);
    const paging::PageFlags rw{true, false, false};
    std::vector<VAddr> mappings;
    mappings.reserve(config.mappings);
    for (unsigned i = 0; i < config.mappings; ++i) {
        const VAddr base =
            kernel.mmapFile(pid, fd, config.bytesPerMapping, rw);
        if (base == 0 || !kernel.touchUser(pid, base))
            break;
        mappings.push_back(base);
        // Interleave attacker-owned pages between table allocations
        // so the buddy allocator packs aggressor frames next to
        // page-table frames.
        if (config.anonPagesPerMapping > 0) {
            const VAddr anon = kernel.mmapAnon(
                pid, config.anonPagesPerMapping * kernel.pageBytes(),
                rw);
            for (unsigned page = 0; page < config.anonPagesPerMapping;
                 ++page) {
                kernel.touchUser(pid,
                                 anon + page * kernel.pageBytes());
            }
        }
    }
    ctx.charge(config.cost.sprayFill);
    if (mappings.empty()) {
        result.outcome = Outcome::Blocked;
        result.detail = "spray produced no mappings";
        return result;
    }

    // Steps 2+3: hammer sandwiched rows, then look for corruption.
    const auto sandwiches = ctx.findSandwiches();
    const std::uint64_t check_cost =
        config.cost.checkPerPte * mappings.size() *
        (config.bytesPerMapping / kernel.pageBytes());
    bool suppressed_everything = true;

    for (unsigned pass = 0; pass < config.maxPasses; ++pass) {
        if (sandwiches.empty()) {
            // No double-sided targets: single-sided on every row.
            for (const OwnedRow &row : ctx.ownedRows()) {
                const dram::HammerResult hammer =
                    ctx.hammerOwnRow(row.vaddrs.front(), config.cost);
                ++result.hammerPasses;
                result.flipsInduced += hammer.total();
                suppressed_everything &= hammer.suppressed;
            }
        } else {
            for (const auto &[bank, victim] : sandwiches) {
                const dram::HammerResult hammer =
                    ctx.hammerSandwich(bank, victim, config.cost);
                ++result.hammerPasses;
                result.flipsInduced += hammer.total();
                suppressed_everything &= hammer.suppressed;
            }
        }

        ctx.charge(check_cost);
        auto self_ref = detectSelfReference(
            kernel, pid, mappings, config.bytesPerMapping);
        if (self_ref) {
            ++result.selfReferences;
            result.outcome = Outcome::SelfReference;
            result.detail = "self-reference at attacker vaddr";
            if (escalate(kernel, pid, *self_ref)) {
                result.outcome = Outcome::Escalated;
                result.detail =
                    "kernel secret read from user mode";
            }
            break;
        }
        if (result.flipsInduced == 0 && pass >= 2)
            break; // nothing is flipping; deterministic -> give up
    }

    if (result.outcome == Outcome::NoCorruption &&
        result.hammerPasses > 0 && suppressed_everything) {
        result.outcome = Outcome::Detected;
        result.detail = "every hammer pass was mitigated";
    }
    result.attackTime = ctx.elapsed();
    return result;
}

} // namespace ctamem::attack
