/**
 * @file
 * Generators for the paper's Tables 2 and 3: expected exploitable
 * PTE counts and expected attack times over the
 * {8, 16, 32} GiB x {32, 64} MiB x {unrestricted, restricted} sweep.
 */

#ifndef CTAMEM_MODEL_TABLES_HH
#define CTAMEM_MODEL_TABLES_HH

#include <ostream>
#include <string>
#include <vector>

#include "model/montecarlo.hh"
#include "model/security_model.hh"

namespace ctamem::model {

/** One cell-pair of Table 2/3. */
struct TableRow
{
    std::uint64_t memBytes;
    std::uint64_t ptpBytes;
    bool restricted;        //!< >= two '0's enforced
    double expectedPtes;
    double attackDays;
};

/**
 * The sweep both tables share.  @p granule_bytes is the modeled
 * translation granule; the 4 KiB default reproduces the paper's
 * x86-64 numbers, larger AArch64 granules shrink the brute-force
 * page count (and so the attack days) proportionally.
 */
std::vector<TableRow> sweepTable(const dram::ErrorStats &errors,
                                 std::uint64_t granule_bytes = 4 * KiB);

/** Table 2: Pf = 1e-4, P01 = 0.2%. */
std::vector<TableRow>
makeTable2(std::uint64_t granule_bytes = 4 * KiB);

/** Table 3: the pessimistic Pf = 5e-4, P01 = 0.5% scaling scenario. */
std::vector<TableRow>
makeTable3(std::uint64_t granule_bytes = 4 * KiB);

/** The published values, for verification and printing. */
struct PaperReference
{
    double expectedPtes;
    double attackDays;
};

/** Paper values for Table 2, keyed like sweepTable's output order. */
std::vector<PaperReference> paperTable2();

/** Paper values for Table 3. */
std::vector<PaperReference> paperTable3();

/** Pretty-print a table with the paper's values alongside. */
void printTable(std::ostream &os, const std::string &title,
                const std::vector<TableRow> &rows,
                const std::vector<PaperReference> &reference);

/**
 * The benches' Monte-Carlo cross-check grid: one McSpec per sweep
 * row at boosted probabilities (@p pf with the fixed 0.3/0.7 flip
 * split — the production probabilities need ~1e9 trials to see one
 * event), restricted rows sampling two zeros.  @p sampler selects
 * the spray-content distribution.
 */
std::vector<McSpec> mcSweepSpecs(const std::vector<TableRow> &rows,
                                 double pf, Sampler sampler,
                                 std::uint64_t trials);

} // namespace ctamem::model

#endif // CTAMEM_MODEL_TABLES_HH
