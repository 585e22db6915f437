/**
 * @file
 * Campaign: the parallel experiment engine over whole machines.
 *
 * A campaign is an ordered list of cells, each "build one machine
 * from a MachineConfig, run one attack".  Machines are self-contained
 * (their DRAM, kernel, observer and RNG streams hang off their own
 * config/seed), so cells are independent tasks: run() farms them out
 * to a ThreadPool and the result table is identical — cell for cell —
 * to the serial run, at any worker count.  The Table-1 matrix bench,
 * the attack-time bench and attack_lab's --matrix mode all render
 * from this table instead of hand-rolling nested machine loops.
 */

#ifndef CTAMEM_SIM_CAMPAIGN_HH
#define CTAMEM_SIM_CAMPAIGN_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/machine.hh"

namespace ctamem::runtime {
class ThreadPool;
} // namespace ctamem::runtime

namespace ctamem::sim {

/** One experiment: a machine to build and an attack to run on it. */
struct CampaignCell
{
    MachineConfig config;
    AttackKind attack = AttackKind::ProjectZero;
    std::string label; //!< defaults to "<attack> vs <defense>"

    bool operator==(const CampaignCell &) const = default;
};

/** Outcome of one cell. */
struct CellResult
{
    CampaignCell cell;
    attack::AttackResult result;
    bool anvilTriggered = false;
    double wallSeconds = 0.0; //!< real build+attack time of the cell
};

/** Table of results plus the wall-clock the sweep itself took. */
struct CampaignReport
{
    std::vector<CellResult> cells; //!< in the order they were added
    double wallSeconds = 0.0;
    /** Sum of per-cell times: the serial-equivalent wall-clock. */
    double cellSecondsTotal() const;

    /**
     * The whole result table as one JSON object (`attack_lab
     * --report`, the machine-readable side of every sweep).
     */
    json::Json toJson() const;
};

class Campaign
{
  public:
    /** Append one cell; returns *this for chaining. */
    Campaign &add(const MachineConfig &config, AttackKind attack,
                  std::string label = {});

    /**
     * Append the full grid, attack-major: for each attack, one cell
     * per config — the layout the matrix benches print.
     */
    Campaign &addGrid(const std::vector<MachineConfig> &configs,
                      const std::vector<AttackKind> &attacks);

    /** Append one pre-built cell verbatim (manifest loader path). */
    Campaign &add(CampaignCell cell);

    /** Drop every cell past the first @p keep (smoke runs). */
    Campaign &truncate(std::size_t keep);

    std::size_t size() const { return cells_.size(); }
    const std::vector<CampaignCell> &cells() const { return cells_; }

    /**
     * Load a whole defense x attack grid from a checked-in `.json`
     * manifest (see sim/scenario.hh for the schema).  Throws
     * json::JsonError on unreadable files or schema violations.
     */
    static Campaign fromManifest(const std::string &path);

    /** Run every cell serially, in order. */
    CampaignReport run() const;

    /**
     * Run the cells as independent tasks on @p pool.  The report's
     * cell table matches the serial run's exactly.
     */
    CampaignReport run(runtime::ThreadPool &pool) const;

  private:
    std::vector<CampaignCell> cells_;
};

/**
 * The one cell executor: boot a machine from the cell's config, run
 * its attack and fill in the CellResult.  wallSeconds covers the
 * boot and the attack.
 */
CellResult runCell(const CampaignCell &cell);

} // namespace ctamem::sim

#endif // CTAMEM_SIM_CAMPAIGN_HH
