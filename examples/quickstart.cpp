/**
 * @file
 * Quickstart: build two simulated machines — one vanilla, one with
 * CTA memory allocation — run the classic RowHammer PTE-spray
 * privilege escalation against both, and watch the 18-line defense
 * change the outcome.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "sim/machine.hh"

int
main()
{
    using namespace ctamem;
    using namespace ctamem::sim;

    // A 256 MiB machine with RowHammer-vulnerable DRAM (Pf boosted
    // to 1e-3 so the simulation takes seconds, not days).
    MachineConfig config;
    config.memBytes = 256 * MiB;
    config.pf = 1e-3;

    std::cout << "=== 1. Vanilla kernel ===\n";
    config.defense = defense::DefenseKind::None;
    Machine vulnerable(config);
    const attack::AttackResult before =
        vulnerable.runAttack(AttackKind::ProjectZero);
    std::cout << "PTE-spray attack outcome: "
              << attack::outcomeName(before.outcome) << " ("
              << before.detail << ")\n"
              << "bit flips induced: " << before.flipsInduced
              << ", hammer passes: " << before.hammerPasses << "\n\n";

    std::cout << "=== 2. Same DRAM, CTA memory allocation ===\n";
    config.defense = defense::DefenseKind::Cta;
    config.ptpBytes = 4 * MiB;
    Machine protected_machine(config);

    const cta::PtpLayout *zone = protected_machine.kernel().ptpLayout();
    std::cout << "ZONE_PTP: " << zone->trueBytes / MiB
              << " MiB of true-cells above the low water mark at 0x"
              << std::hex << zone->lowWaterMark << std::dec << " ("
              << zone->skippedAntiBytes / MiB
              << " MiB of anti-cells skipped)\n";

    const attack::AttackResult after =
        protected_machine.runAttack(AttackKind::ProjectZero);
    std::cout << "PTE-spray attack outcome: "
              << attack::outcomeName(after.outcome) << " ("
              << after.detail << ")\n";

    // The executable No-Self-Reference theorem audit.
    const cta::TheoremAudit audit =
        protected_machine.kernel().auditTheorem();
    std::cout << "theorem premises hold after the attack: "
              << (audit.holds() ? "yes" : "NO") << '\n';

    const bool reproduced =
        before.outcome == attack::Outcome::Escalated &&
        after.outcome != attack::Outcome::Escalated && audit.holds();
    std::cout << "\nheadline result reproduced: "
              << (reproduced ? "YES" : "NO") << '\n';
    return reproduced ? 0 : 1;
}
