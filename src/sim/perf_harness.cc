#include "sim/perf_harness.hh"

#include <chrono>
#include <iomanip>

namespace ctamem::sim {

namespace {

/** Wall-clock of one workload run on one machine, in seconds. */
double
timedRun(Machine &machine, const WorkloadSpec &spec,
         WorkloadMetrics &metrics)
{
    const auto start = std::chrono::steady_clock::now();
    metrics = runWorkload(machine.kernel(), spec);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

std::vector<PerfRow>
comparePolicies(const MachineConfig &base,
                const std::vector<WorkloadSpec> &specs,
                defense::DefenseKind baseline,
                defense::DefenseKind protected_kind,
                PtFootprint *footprint)
{
    MachineConfig base_config = base;
    base_config.defense = baseline;
    MachineConfig prot_config = base;
    prot_config.defense = protected_kind;

    Machine baseline_machine(base_config);
    Machine protected_machine(prot_config);

    std::vector<PerfRow> rows;
    std::uint64_t peak_tables = 0;
    for (const WorkloadSpec &spec : specs) {
        WorkloadMetrics base_metrics;
        WorkloadMetrics prot_metrics;
        const double base_wall =
            timedRun(baseline_machine, spec, base_metrics);
        const double prot_wall =
            timedRun(protected_machine, spec, prot_metrics);
        peak_tables =
            std::max(peak_tables, prot_metrics.peakTableBytes);
        rows.push_back(PerfRow{
            spec.suite, spec.name, base_metrics.score(),
            prot_metrics.score(),
            base_wall > 0.0 ?
                (prot_wall - base_wall) / base_wall * 100.0 :
                0.0});
    }

    if (footprint) {
        footprint->peakTableBytes = peak_tables;
        const cta::PtpLayout *ptp =
            protected_machine.kernel().ptpLayout();
        footprint->ptpCapacityBytes = ptp ? ptp->trueBytes : 0;
        footprint->pteAllocFailures =
            protected_machine.kernel().stats().value(
                "pteAllocFailures");
        footprint->ptReclaims =
            protected_machine.kernel().stats().value("ptReclaims");
    }
    return rows;
}

void
printPerfTable(std::ostream &os, const std::string &title,
               const std::vector<PerfRow> &rows)
{
    os << title << '\n';
    os << std::left << std::setw(12) << "Suite" << std::setw(20)
       << "Benchmark" << std::right << std::setw(14) << "base score"
       << std::setw(14) << "CTA score" << std::setw(10) << "delta%"
       << std::setw(12) << "wall d%" << '\n';
    double sum_delta = 0.0;
    for (const PerfRow &row : rows) {
        os << std::left << std::setw(12) << row.suite << std::setw(20)
           << row.name << std::right << std::fixed
           << std::setprecision(0) << std::setw(14)
           << row.baselineScore << std::setw(14)
           << row.protectedScore << std::setprecision(2)
           << std::setw(10) << row.deltaPct() << std::setw(12)
           << row.wallDeltaPct << '\n';
        sum_delta += row.deltaPct();
    }
    const double mean_delta =
        rows.empty() ? 0.0 :
                       sum_delta / static_cast<double>(rows.size());
    os << "Mean modeled delta: " << std::setprecision(3)
       << mean_delta << "%\n";
    os.unsetf(std::ios::fixed);
}

} // namespace ctamem::sim
