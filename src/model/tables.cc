#include "model/tables.hh"

#include <iomanip>

namespace ctamem::model {

std::vector<TableRow>
sweepTable(const dram::ErrorStats &errors,
           std::uint64_t granule_bytes)
{
    std::vector<TableRow> rows;
    for (const std::uint64_t mem :
         {8 * GiB, 16 * GiB, 32 * GiB}) {
        for (const bool restricted : {false, true}) {
            for (const std::uint64_t ptp : {32 * MiB, 64 * MiB}) {
                SystemParams params;
                params.memBytes = mem;
                params.ptpBytes = ptp;
                params.minIndicatorZeros = restricted ? 2 : 0;
                params.errors = errors;
                params.granuleBytes = granule_bytes;
                rows.push_back(TableRow{
                    mem, ptp, restricted,
                    expectedExploitablePtes(params),
                    expectedAttackTime(params).avgDays});
            }
        }
    }
    return rows;
}

std::vector<TableRow>
makeTable2(std::uint64_t granule_bytes)
{
    return sweepTable(dram::ErrorStats{}, granule_bytes);
}

std::vector<TableRow>
makeTable3(std::uint64_t granule_bytes)
{
    return sweepTable(dram::ErrorStats::pessimistic(),
                      granule_bytes);
}

std::vector<PaperReference>
paperTable2()
{
    // Order: per memory size, {unrestricted, restricted} x
    // {32 MiB, 64 MiB}.
    return {
        {6.7, 57.6},        {11.73, 70.3},
        {4.69e-6, 230.7},   {7.04e-6, 457.3},
        {7.54, 102.7},      {13.41, 122.4},
        {6.03e-6, 462.3},   {9.38e-6, 918.3},
        {8.32, 185.1},      {15.08, 216.5},
        {7.54e-6, 925.5},   {1.20e-5, 1840.3},
    };
}

std::vector<PaperReference>
paperTable3()
{
    return {
        {83.59, 5.42},      {146.36, 6.18},
        {7.3e-4, 230.7},    {1.09e-3, 457.3},
        {93.99, 9.73},      {167.18, 10.86},
        {9.40e-4, 462.3},   {1.46e-3, 918.3},
        {104.38, 17.46},    {187.99, 19.47},
        {1.17e-3, 925.5},   {1.88e-3, 1840.3},
    };
}

std::vector<McSpec>
mcSweepSpecs(const std::vector<TableRow> &rows, double pf,
             Sampler sampler, std::uint64_t trials)
{
    std::vector<McSpec> specs;
    specs.reserve(rows.size());
    for (const TableRow &row : rows) {
        McSpec spec;
        spec.params.memBytes = row.memBytes;
        spec.params.ptpBytes = row.ptpBytes;
        spec.params.errors.pf = pf;
        spec.params.errors.p01True = 0.3;
        spec.sampler = sampler;
        spec.zeros = row.restricted ? 2 : 1;
        spec.trials = trials;
        specs.push_back(spec);
    }
    return specs;
}

void
printTable(std::ostream &os, const std::string &title,
           const std::vector<TableRow> &rows,
           const std::vector<PaperReference> &reference)
{
    os << title << '\n';
    os << std::left << std::setw(8) << "Memory" << std::setw(8)
       << "PTP" << std::setw(12) << "Restricted" << std::setw(14)
       << "E[PTEs]" << std::setw(14) << "paper" << std::setw(14)
       << "days" << std::setw(14) << "paper" << '\n';
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const TableRow &row = rows[i];
        os << std::setw(8)
           << (std::to_string(row.memBytes / GiB) + "GB")
           << std::setw(8)
           << (std::to_string(row.ptpBytes / MiB) + "MB")
           << std::setw(12) << (row.restricted ? ">=2 zeros" : "no")
           << std::setprecision(4) << std::setw(14)
           << row.expectedPtes;
        if (i < reference.size()) {
            os << std::setw(14) << reference[i].expectedPtes;
        } else {
            os << std::setw(14) << "-";
        }
        os << std::setprecision(4) << std::setw(14) << row.attackDays;
        if (i < reference.size()) {
            os << std::setw(14) << reference[i].attackDays;
        } else {
            os << std::setw(14) << "-";
        }
        os << '\n';
    }
}

} // namespace ctamem::model
