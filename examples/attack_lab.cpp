/**
 * @file
 * attack_lab — a command-line driver over the whole library: build a
 * machine with any defense, run any attack, print a full report.
 *
 *   ./build/examples/attack_lab --defense cta --attack projectzero
 *   ./build/examples/attack_lab --defense none --attack drammer \
 *       --mem 512 --pf 1e-3 --seed 42
 *   ./build/examples/attack_lab --matrix --jobs 4
 *   ./build/examples/attack_lab --scenario scenarios/hardened.json \
 *       --report report.json
 *   ./build/examples/attack_lab --list
 *
 * Defense and attack names come straight from the registries, so a
 * newly registered defense (SoftTRR, say) shows up in --list, --matrix
 * and scenario manifests with no changes here.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "attack/registry.hh"
#include "common/log.hh"
#include "defense/registry.hh"
#include "fuzz/pattern.hh"
#include "paging/arch.hh"
#include "runtime/thread_pool.hh"
#include "sim/campaign.hh"
#include "sim/scenario.hh"

namespace {

using namespace ctamem;
using defense::DefenseKind;
using sim::AttackKind;

/**
 * One layer's registry tokens, sorted for stable output (registries
 * keep registration order, which is link-order dependent).
 */
void
listGroup(const char *heading,
          std::vector<std::pair<std::string, std::string>> rows)
{
    std::sort(rows.begin(), rows.end());
    std::cout << heading << ":\n";
    for (const auto &[token, display] : rows)
        std::cout << "  " << std::left << std::setw(16) << token
                  << display << '\n';
}

void
listOptions()
{
    std::vector<std::pair<std::string, std::string>> attacks;
    for (const auto &spec : attack::Registry::instance().all())
        attacks.emplace_back(spec->name, spec->display);
    listGroup("attacks", std::move(attacks));

    std::vector<std::pair<std::string, std::string>> defenses;
    for (const auto &spec : defense::Registry::instance().all())
        defenses.emplace_back(spec->name, spec->display);
    listGroup("defenses", std::move(defenses));

    std::vector<std::pair<std::string, std::string>> families;
    for (const std::string &family : fuzz::patternFamilies())
        families.emplace_back(family,
                              "PatternBuilder seed family");
    listGroup("pattern families", std::move(families));

    std::vector<std::pair<std::string, std::string>> arches;
    for (const paging::Arch *arch : paging::kAllArches) {
        arches.emplace_back(
            arch->name,
            std::to_string(arch->levels) + "-level, " +
                std::to_string(arch->granuleBytes() / KiB) +
                " KiB granule");
    }
    listGroup("arches", std::move(arches));
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: attack_lab [--defense NAME] [--attack NAME]"
                 " [--arch ISA] [--granule KiB]"
                 " [--mem MiB] [--ptp MiB] [--pf P] [--seed N]"
                 " [--matrix] [--scenario FILE.json]"
                 " [--report OUT.json] [--max-cells N] [--jobs N]"
                 " [--list]\n";
    std::exit(2);
}

/** Render a campaign's cells as one row per cell. */
void
printCellTable(const sim::CampaignReport &report)
{
    std::cout << std::left << std::setw(40) << "cell"
              << std::setw(13) << "arch" << std::setw(18) << "outcome"
              << std::setw(10) << "passes" << std::setw(10) << "flips"
              << '\n';
    for (const sim::CellResult &cell : report.cells) {
        // Resolve exactly as the machine did, so the row shows the
        // backend the cell really ran on (not just the manifest key).
        const paging::Arch &arch = paging::resolveArch(
            cell.cell.config.arch, cell.cell.config.granule);
        std::string text = attack::outcomeName(cell.result.outcome);
        if (cell.anvilTriggered)
            text += "*";
        std::cout << std::setw(40) << cell.cell.label << std::setw(13)
                  << arch.name << std::setw(18) << text
                  << std::setw(10) << cell.result.hammerPasses
                  << std::setw(10) << cell.result.flipsInduced
                  << '\n';
    }
}

void
printSweepFooter(const sim::CampaignReport &report,
                 const runtime::ThreadPool &pool)
{
    std::cout << "\n" << report.cells.size() << " cells, wall "
              << std::setprecision(3) << report.wallSeconds
              << " s on " << pool.size()
              << " workers (serial-equivalent "
              << report.cellSecondsTotal() << " s)\n";
}

/** --report: the machine-readable side of any sweep. */
bool
writeReport(const sim::CampaignReport &report,
            const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "attack_lab: cannot write " << path << '\n';
        return false;
    }
    report.toJson().write(out);
    out << '\n';
    std::cout << "report written to " << path << '\n';
    return true;
}

/**
 * --matrix: run every registered attack against every registered
 * defense as one parallel Campaign (same machine config otherwise)
 * and render the table.
 */
int
runMatrix(const sim::MachineConfig &base, unsigned jobs,
          const std::string &report_path)
{
    std::vector<sim::MachineConfig> configs;
    std::vector<DefenseKind> defenses;
    for (const auto &spec : defense::Registry::instance().all()) {
        sim::MachineConfig config = base;
        config.defense = spec->kind;
        configs.push_back(config);
        defenses.push_back(spec->kind);
    }
    std::vector<AttackKind> attacks;
    for (const auto &spec : attack::Registry::instance().all())
        attacks.push_back(spec->kind);

    sim::Campaign campaign;
    campaign.addGrid(configs, attacks);
    runtime::ThreadPool pool(jobs);
    const sim::CampaignReport report = campaign.run(pool);

    std::cout << std::left << std::setw(26) << "attack \\ defense";
    for (const DefenseKind defense : defenses)
        std::cout << std::setw(17) << defense::defenseName(defense);
    std::cout << '\n';
    std::size_t index = 0;
    for (const AttackKind attack : attacks) {
        std::cout << std::setw(26) << sim::attackName(attack);
        for (std::size_t col = 0; col < defenses.size(); ++col) {
            const sim::CellResult &cell = report.cells.at(index++);
            std::string text =
                attack::outcomeName(cell.result.outcome);
            if (cell.anvilTriggered)
                text += "*";
            std::cout << std::setw(17) << text;
        }
        std::cout << '\n';
    }
    printSweepFooter(report, pool);
    if (!report_path.empty() && !writeReport(report, report_path))
        return 2;
    return 0;
}

/** --scenario: load a manifest, run its campaign, render the table. */
int
runScenario(const std::string &path, unsigned jobs,
            std::size_t max_cells, const std::string &report_path)
{
    sim::Campaign campaign;
    try {
        campaign = sim::Campaign::fromManifest(path);
    } catch (const json::JsonError &err) {
        std::cerr << "attack_lab: " << path << ": " << err.what()
                  << '\n';
        return 2;
    }
    if (max_cells)
        campaign.truncate(max_cells);
    std::cout << "scenario: " << path << " (" << campaign.size()
              << " cells)\n\n";

    runtime::ThreadPool pool(jobs);
    sim::CampaignReport report;
    try {
        report = campaign.run(pool);
    } catch (const FatalError &err) {
        // A cell whose machine cannot boot (e.g. a ZONE_PTP the
        // module's true cells cannot supply).
        std::cerr << "attack_lab: " << path << ": " << err.what()
                  << '\n';
        return 1;
    }
    printCellTable(report);
    printSweepFooter(report, pool);
    if (!report_path.empty() && !writeReport(report, report_path))
        return 2;
    return 0;
}

/**
 * Single-cell mode: boot one machine, run one attack and print a full
 * report.  Exit 1 when the attack escalated.
 */
int
runSingle(const sim::MachineConfig &config, AttackKind attack)
{
    std::cout << "machine: " << config.memBytes / MiB << " MiB, Pf="
              << config.pf << ", seed=" << config.seed
              << ", defense=" << defense::defenseName(config.defense)
              << ", arch="
              << paging::resolveArch(config.arch, config.granule).name
              << '\n';
    sim::Machine machine(config);
    if (const cta::PtpLayout *ptp = machine.kernel().ptpLayout()) {
        std::cout << "ZONE_PTP: " << ptp->trueBytes / MiB
                  << " MiB true-cells, LWM=0x" << std::hex
                  << ptp->lowWaterMark << std::dec << ", "
                  << ptp->skippedAntiBytes / MiB
                  << " MiB anti skipped\n";
    }

    std::cout << "running: " << sim::attackName(attack) << "...\n\n";
    // Event recording is opt-in since the mask-based engine; the lab
    // wants the individual flips for its report, so hook a sink up.
    std::vector<dram::FlipEvent> flips;
    machine.engine().setEventSink(&flips);
    const attack::AttackResult result = machine.runAttack(attack);
    machine.engine().setEventSink(nullptr);
    std::uint64_t down = 0;
    for (const dram::FlipEvent &flip : flips)
        down += flip.dir == dram::FlipDirection::OneToZero;

    std::cout << "outcome:        "
              << attack::outcomeName(result.outcome) << '\n'
              << "detail:         " << result.detail << '\n'
              << "hammer passes:  " << result.hammerPasses << '\n'
              << "flips induced:  " << result.flipsInduced << '\n'
              << "flips recorded: " << flips.size() << " ("
              << down << " 1->0, " << flips.size() - down
              << " 0->1)\n"
              << "self-refs:      " << result.selfReferences << '\n'
              << "PTEs corrupted: " << result.ptesCorrupted << '\n'
              << "modeled time:   "
              << static_cast<double>(result.attackTime) /
                     static_cast<double>(seconds)
              << " s\n";
    if (machine.observer()) {
        std::cout << "mitigations:    "
                  << machine.observer()->mitigations() << " ("
                  << machine.observer()->name() << ")\n";
    }
    const cta::TheoremAudit audit = machine.kernel().auditTheorem();
    if (machine.kernel().ptpLayout()) {
        std::cout << "theorem audit:  "
                  << (audit.holds() ? "holds" : "VIOLATED") << '\n';
    }
    return result.succeeded() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string defense_name = "cta";
    std::string attack_name = "projectzero";
    std::string scenario_path;
    std::string report_path;
    sim::MachineConfig config;
    bool matrix = false;
    unsigned jobs = 0; // 0 = one worker per hardware thread
    std::size_t max_cells = 0; // 0 = run every cell

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--list") {
            listOptions();
            return 0;
        } else if (arg == "--defense") {
            defense_name = next();
        } else if (arg == "--attack") {
            attack_name = next();
        } else if (arg == "--arch") {
            const std::string name = next();
            if (!paging::parseIsa(name, config.arch)) {
                std::cerr << "attack_lab: unknown arch " << name
                          << '\n';
                return 2;
            }
        } else if (arg == "--granule") {
            config.granule = std::stoull(next()) * KiB;
        } else if (arg == "--mem") {
            config.memBytes = std::stoull(next()) * MiB;
        } else if (arg == "--ptp") {
            config.ptpBytes = std::stoull(next()) * MiB;
        } else if (arg == "--pf") {
            config.pf = std::stod(next());
        } else if (arg == "--seed") {
            config.seed = std::stoull(next());
        } else if (arg == "--matrix") {
            matrix = true;
        } else if (arg == "--scenario") {
            scenario_path = next();
        } else if (arg == "--report") {
            report_path = next();
        } else if (arg == "--max-cells") {
            max_cells = std::stoull(next());
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(std::stoul(next()));
        } else {
            usage();
        }
    }
    if (!scenario_path.empty())
        return runScenario(scenario_path, jobs, max_cells,
                           report_path);

    // A config built from flags gets the checks a manifest gets.
    try {
        sim::checkMachineConfig(config);
    } catch (const json::JsonError &err) {
        std::cerr << "attack_lab: " << err.what() << '\n';
        return 2;
    }

    try {
        if (matrix)
            return runMatrix(config, jobs, report_path);

        const defense::DefenseSpec *defense_spec =
            defense::Registry::instance().find(defense_name);
        const attack::AttackSpec *attack_spec =
            attack::Registry::instance().find(attack_name);
        if (!defense_spec || !attack_spec) {
            listOptions();
            return 2;
        }
        config.defense = defense_spec->kind;
        return runSingle(config, attack_spec->kind);
    } catch (const FatalError &err) {
        // A machine that cannot boot (e.g. a ZONE_PTP the module's
        // true cells cannot supply).
        std::cerr << "attack_lab: " << err.what() << '\n';
        return 1;
    }
}
