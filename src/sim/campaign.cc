#include "sim/campaign.hh"

#include <chrono>

#include "runtime/thread_pool.hh"

namespace ctamem::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

} // namespace

double
CampaignReport::cellSecondsTotal() const
{
    double total = 0.0;
    for (const CellResult &cell : cells)
        total += cell.wallSeconds;
    return total;
}

Campaign &
Campaign::add(const MachineConfig &config, AttackKind attack,
              std::string label)
{
    return add(CampaignCell{config, attack, std::move(label)});
}

Campaign &
Campaign::add(CampaignCell cell)
{
    if (cell.label.empty()) {
        cell.label = std::string(attackName(cell.attack)) + " vs " +
                     defense::defenseName(cell.config.defense);
    }
    cells_.push_back(std::move(cell));
    return *this;
}

Campaign &
Campaign::truncate(std::size_t keep)
{
    if (cells_.size() > keep)
        cells_.resize(keep);
    return *this;
}

Campaign &
Campaign::addGrid(const std::vector<MachineConfig> &configs,
                  const std::vector<AttackKind> &attacks)
{
    for (const AttackKind attack : attacks)
        for (const MachineConfig &config : configs)
            add(config, attack);
    return *this;
}

CellResult
runCell(const CampaignCell &cell)
{
    const Clock::time_point start = Clock::now();
    Machine machine(cell.config);
    CellResult out;
    out.cell = cell;
    out.result = machine.runAttack(cell.attack);
    out.anvilTriggered = machine.anvil() && machine.anvil()->triggered();
    out.wallSeconds = secondsSince(start);
    return out;
}

CampaignReport
Campaign::run() const
{
    const Clock::time_point start = Clock::now();
    CampaignReport report;
    report.cells.reserve(cells_.size());
    for (const CampaignCell &cell : cells_)
        report.cells.push_back(runCell(cell));
    report.wallSeconds = secondsSince(start);
    return report;
}

CampaignReport
Campaign::run(runtime::ThreadPool &pool) const
{
    const Clock::time_point start = Clock::now();
    CampaignReport report;
    report.cells.resize(cells_.size());
    // Each task owns its slot; the table keeps insertion order no
    // matter which worker finishes first.
    pool.parallelFor(0, cells_.size(), [&](std::uint64_t i) {
        report.cells[i] = runCell(cells_[i]);
    });
    report.wallSeconds = secondsSince(start);
    return report;
}

} // namespace ctamem::sim
