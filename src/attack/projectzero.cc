#include "attack/projectzero.hh"

#include "attack/exploit.hh"

namespace ctamem::attack {

AttackResult
runProjectZero(kernel::Kernel &kernel, dram::RowHammerEngine &engine)
{
    constexpr std::uint64_t bytesPerMapping = 64 * KiB;
    constexpr unsigned maxPasses = 8;

    AttackResult result;
    const int pid = kernel.createProcess("pz-attacker");
    AttackerContext ctx(kernel, engine, pid);

    // Step 1: spray page tables with interleaved aggressor pages.
    const std::vector<VAddr> mappings =
        ctx.spray(512, bytesPerMapping, 2);
    ctx.charge(model::kSprayFillCost);
    if (mappings.empty()) {
        result.outcome = Outcome::Blocked;
        result.detail = "spray produced no mappings";
        return result;
    }

    // Steps 2+3: hammer sandwiched rows, then look for corruption.
    const auto sandwiches = ctx.findSandwiches();
    const std::uint64_t check_cost =
        model::kCheckPteCost * mappings.size() *
        (bytesPerMapping / kernel.pageBytes());
    bool suppressed_everything = true;

    for (unsigned pass = 0; pass < maxPasses; ++pass) {
        suppressed_everything &= ctx.hammerPass(sandwiches, result);
        ctx.charge(check_cost);
        if (exploit(kernel, pid, mappings, bytesPerMapping, result,
                    "self-reference at attacker vaddr",
                    "kernel secret read from user mode")) {
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
