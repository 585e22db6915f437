#include "attack/sync_hammer.hh"

#include <string>
#include <utility>
#include <vector>

#include "attack/exploit.hh"
#include "defense/registry.hh"
#include "fuzz/fuzzer.hh"

namespace ctamem::attack {

using kernel::Kernel;

namespace {

constexpr unsigned sprayMappings = 32;
constexpr std::uint64_t bytesPerMapping = 64 * KiB;
constexpr unsigned anonPagesPerMapping = 2;

/**
 * Where to anchor a pattern replay: the first sandwich's (bank,
 * victim - 1), so entry offsets 0/2 are the attacker's aggressor
 * pair.  Falls back to the first owned row when the spray produced
 * no sandwich.  nullopt = the attacker owns no rows at all.
 */
std::optional<std::pair<std::uint64_t, std::uint64_t>>
replayAnchor(AttackerContext &ctx)
{
    const auto sandwiches = ctx.findSandwiches();
    if (!sandwiches.empty()) {
        const auto &[bank, victim] = sandwiches.front();
        return std::make_pair(bank,
                              victim > 0 ? victim - 1 : victim);
    }
    const std::vector<OwnedRow> owned = ctx.ownedRows();
    if (owned.empty())
        return std::nullopt;
    return std::make_pair(owned.front().bank, owned.front().row);
}

/** Shared post-hammer exploitation + outcome classification. */
void
conclude(Kernel &kernel, int pid, const std::vector<VAddr> &mappings,
         bool all_suppressed, AttackResult &result)
{
    if (result.flipsInduced > 0) {
        exploit(kernel, pid, mappings, bytesPerMapping, result,
                "self-reference at attacker vaddr",
                "kernel secret read from user mode");
        return;
    }
    if (result.hammerPasses > 0 && all_suppressed) {
        result.outcome = Outcome::Detected;
        result.detail = "every hammer pass was mitigated";
    }
}

/**
 * Replay @p pattern on the live machine and classify the outcome —
 * the back half shared by the sync and fuzz attacks.
 */
AttackResult
replayPattern(Kernel &kernel, dram::RowHammerEngine &engine,
              const AttackParams &params,
              const fuzz::HammeringPattern &pattern,
              std::string detail)
{
    AttackResult result;
    const int pid = kernel.createProcess("timed-attacker");
    AttackerContext ctx(kernel, engine, pid);

    const std::vector<VAddr> mappings =
        ctx.spray(sprayMappings, bytesPerMapping, anonPagesPerMapping);
    ctx.charge(model::kSprayFillCost);
    if (mappings.empty()) {
        result.outcome = Outcome::Blocked;
        result.detail = "spray produced no mappings";
        return result;
    }

    const auto anchor = replayAnchor(ctx);
    if (!anchor) {
        result.outcome = Outcome::Blocked;
        result.detail = "attacker owns no rows";
        return result;
    }

    engine.setRefTiming(params.fuzz.timing);
    fuzz::PatternRun run;
    run.bank = anchor->first;
    run.baseRow = anchor->second;
    run.windows = params.fuzz.windows;
    const dram::HammerResult replay =
        fuzz::runPattern(engine, pattern, run);

    result.hammerPasses = run.windows;
    result.flipsInduced = replay.total();
    ctx.charge(model::kHammerRowCost * run.windows);
    ctx.charge(model::kCheckPteCost * mappings.size() *
               (bytesPerMapping / kernel.pageBytes()));
    result.detail = std::move(detail);

    conclude(kernel, pid, mappings, replay.suppressed, result);
    result.attackTime = ctx.elapsed();
    return result;
}

} // namespace

AttackResult
runUniformHammer(Kernel &kernel, dram::RowHammerEngine &engine,
                 const AttackParams &)
{
    constexpr unsigned maxPasses = 4;

    AttackResult result;
    const int pid = kernel.createProcess("uniform-attacker");
    AttackerContext ctx(kernel, engine, pid);

    const std::vector<VAddr> mappings =
        ctx.spray(sprayMappings, bytesPerMapping, anonPagesPerMapping);
    ctx.charge(model::kSprayFillCost);
    if (mappings.empty()) {
        result.outcome = Outcome::Blocked;
        result.detail = "spray produced no mappings";
        return result;
    }

    const auto sandwiches = ctx.findSandwiches();
    bool all_suppressed = true;
    for (unsigned pass = 0; pass < maxPasses; ++pass) {
        all_suppressed &= ctx.hammerPass(sandwiches, result);
        if (result.flipsInduced == 0 && pass >= 1)
            break; // deterministic: more identical passes won't help
    }

    conclude(kernel, pid, mappings, all_suppressed, result);
    result.attackTime = ctx.elapsed();
    return result;
}

AttackResult
runSyncHammer(Kernel &kernel, dram::RowHammerEngine &engine,
              const AttackParams &params)
{
    const fuzz::PatternBuilder builder(params.fuzz.builder,
                                       params.fuzz.timing);
    return replayPattern(kernel, engine, params,
                         builder.family("sync"),
                         "replayed the fixed sync family");
}

AttackResult
runFuzzHammer(Kernel &kernel, dram::RowHammerEngine &engine,
              const AttackParams &params)
{
    // Template phase: search against a private replica of this
    // machine's module and defense.  Serial on purpose — campaign
    // cells are already running in parallel, and serial evaluation
    // is trivially deterministic.
    fuzz::FuzzTarget target;
    target.dram = kernel.dram().config();
    if (const defense::ObserverFactory factory =
            defense::defenseSpec(params.defense).makeObserver) {
        target.makeObserver = [factory,
                               defense_params = params.defenseParams] {
            return factory(defense_params);
        };
    }

    fuzz::PatternFuzzer fuzzer(std::move(target), params.fuzz);
    const fuzz::FuzzOutcome found = fuzzer.run();

    std::string detail =
        "fuzzer: patterns=" +
        std::to_string(found.patternsEvaluated) +
        " bestFlips=" + std::to_string(found.bestFlips) +
        " firstBypassGen=" +
        (found.firstBypassGeneration == ~0ULL
             ? std::string("none")
             : std::to_string(found.firstBypassGeneration)) +
        " hash=" + std::to_string(found.best.hash());

    return replayPattern(kernel, engine, params, found.best,
                         std::move(detail));
}

} // namespace ctamem::attack
