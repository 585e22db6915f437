/**
 * @file
 * Reproduces the Table 1 landscape as an executable matrix: every
 * implemented RowHammer attack class against every defense, printing
 * the outcome.  The paper's claim reads off the CTA columns: all
 * PTE-based privilege escalations end BLOCKED / NO-CORRUPTION, while
 * the baseline and the published bypass targets fall.
 *
 * The matrix is one sim::Campaign grid: every (attack, defense) cell
 * is an independent machine run as a thread-pool task, and the table
 * below renders from the campaign's result table.
 *
 * Usage: bench_table1_attack_matrix [--arch NAME] [--out <path>]
 *
 *   --arch   paging backend for every machine in the grid: one of the
 *            descriptor tokens from `attack_lab --list` ("x86_64",
 *            "aarch64/4k", "aarch64/16k", "aarch64/64k");
 *            default x86_64.
 *   --out    JSON report path.  One entry per cell, named
 *            "<attack>__<defense>", with value = flips induced,
 *            unit = outcome name, iterations = hammer passes — all
 *            deterministic given the seed, so the bench_table1_exact
 *            ctest diffs an x86-64 run byte for byte against the
 *            checked-in BENCH_table1.json.
 *            Default: BENCH_table1.json for x86_64, else
 *            BENCH_table1_<granule>.json.
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "paging/arch.hh"
#include "runtime/thread_pool.hh"
#include "sim/scenarios.hh"

namespace {

using namespace ctamem;

/** The built-in descriptor whose `name` token is @p name, or null. */
const paging::Arch *
findArch(const std::string &name)
{
    for (const paging::Arch *arch : paging::kAllArches)
        if (name == arch->name)
            return arch;
    return nullptr;
}

/** "aarch64/16k" -> "aarch64_16k": token usable in a file name. */
std::string
fileToken(const std::string &name)
{
    std::string token = name;
    std::replace(token.begin(), token.end(), '/', '_');
    return token;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ctamem::sim;
    using defense::DefenseKind;

    const paging::Arch *arch = &paging::kX86_64;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--arch" && i + 1 < argc) {
            arch = findArch(argv[++i]);
            if (!arch) {
                std::cerr << "bench_table1: unknown arch "
                          << argv[i] << " (see attack_lab --list)\n";
                return 2;
            }
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--arch NAME] [--out <path>]\n";
            return 2;
        }
    }
    if (out.empty()) {
        out = arch == &paging::kX86_64
                  ? "BENCH_table1.json"
                  : "BENCH_table1_" + fileToken(arch->name) + ".json";
    }

    // The shared paper-default preset: one default-parameter machine
    // per defense (256 MiB, Pf=1e-3, the Drammer arena of 1024
    // pages), every attack, attack-major.  scenarios/
    // paper-default.json is the manifest twin of this grid; --arch
    // swaps the paging backend under the identical sweep.
    const std::vector<DefenseKind> defenses =
        scenarios::table1Defenses();
    const std::vector<AttackKind> attacks =
        scenarios::table1Attacks();
    std::vector<MachineConfig> configs = scenarios::table1Configs();
    for (MachineConfig &config : configs) {
        config.arch = arch->isa;
        config.granule = arch->granuleBytes();
    }
    Campaign campaign;
    campaign.addGrid(configs, attacks);
    runtime::ThreadPool pool;
    const CampaignReport report = campaign.run(pool);

    std::cout << "Attack x defense outcome matrix (256 MiB machines, "
                 "Pf=1e-3, seed 1234, arch "
              << arch->name << ")\n\n";
    std::cout << std::left << std::setw(26) << "attack \\ defense";
    for (DefenseKind defense : defenses)
        std::cout << std::setw(17) << defense::defenseName(defense);
    std::cout << '\n';

    // Keyed by cell name, so the report lists the cells sorted.
    std::map<std::string, json::Json> cells;
    bool cta_holds = true;
    std::size_t index = 0;
    for (AttackKind kind : attacks) {
        std::cout << std::setw(26) << attackName(kind);
        for (DefenseKind defense : defenses) {
            const CellResult &cell = report.cells.at(index++);
            std::string text =
                attack::outcomeName(cell.result.outcome);
            if (cell.anvilTriggered)
                text += "*";
            std::cout << std::setw(17) << text;
            cells[std::string(attackToken(kind)) + "__" +
                  defense::defenseToken(defense)] =
                json::Json::object()
                    .set("value",
                         static_cast<double>(cell.result.flipsInduced))
                    .set("unit", text)
                    .set("iterations", cell.result.hammerPasses);
            if ((defense == DefenseKind::Cta ||
                 defense == DefenseKind::CtaRestricted) &&
                (cell.result.outcome == attack::Outcome::Escalated ||
                 cell.result.outcome ==
                     attack::Outcome::SelfReference)) {
                cta_holds = false;
            }
        }
        std::cout << '\n';
    }

    std::cout << "\n(*) ANVIL detector raised an alarm during the "
                 "attack.\nKERNEL-CORRUPTED = isolation broken but no "
                 "PTE self-reference (CTA tolerates it by design: "
                 "monotonic pointers cannot self-reference).\n";
    std::cout << "\nsweep: " << report.cells.size() << " cells on "
              << pool.size() << " workers, wall "
              << std::setprecision(3) << report.wallSeconds
              << " s (serial-equivalent "
              << report.cellSecondsTotal() << " s, speedup "
              << report.cellSecondsTotal() /
                     std::max(report.wallSeconds, 1e-9)
              << "x)\n";
    std::cout << "\nCTA columns free of escalation/self-reference: "
              << (cta_holds ? "YES" : "NO") << '\n';

    json::Json table = json::Json::object();
    for (auto &[name, row] : cells)
        table.set(name, std::move(row));
    std::ofstream file(out);
    table.write(file);
    file << '\n';
    if (!file) {
        std::cerr << "bench_table1: cannot write " << out << '\n';
        return 1;
    }
    std::cout << "report: " << out << '\n';
    return cta_holds ? 0 : 1;
}
