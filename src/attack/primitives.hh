/**
 * @file
 * Attacker-side primitives.
 *
 * An AttackerContext wraps one unprivileged process and exposes only
 * operations a real user-mode attacker has: mapping memory, touching
 * it, timing/hammering rows *it owns pages in* (repeatedly accessing
 * its own virtual addresses opens those DRAM rows), and flushing the
 * TLB.  Physical-layout knowledge flows in only through the documented
 * real-world channels (deterministic allocator behaviour, templating).
 */

#ifndef CTAMEM_ATTACK_PRIMITIVES_HH
#define CTAMEM_ATTACK_PRIMITIVES_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "attack/result.hh"
#include "common/types.hh"
#include "dram/hammer.hh"
#include "kernel/kernel.hh"
#include "model/security_model.hh"

namespace ctamem::attack {

/** A DRAM row the attacker can aggress, with its owned pages. */
struct OwnedRow
{
    std::uint64_t bank;
    std::uint64_t row;                //!< logical in-bank row
    std::vector<VAddr> vaddrs;        //!< attacker pages in this row
};

/** The attacker's toolkit around one unprivileged process. */
class AttackerContext
{
  public:
    AttackerContext(kernel::Kernel &kernel, dram::RowHammerEngine &engine,
                    int pid)
        : kernel_(kernel), engine_(engine), pid_(pid)
    {}

    SimTime elapsed() const { return elapsed_; }
    void charge(SimTime dt) { elapsed_ += dt; }

    /**
     * Spray page tables (step 1): create one file of @p bytes_each
     * bytes and map it @p mappings times, touching the first page of
     * each mapping so the kernel allocates its leaf table.  After
     * each mapping, @p anon_pages touched anonymous pages interleave
     * aggressor frames with the table frames.  Stops early once a
     * touch fails (ZONE_PTP exhausted under CTA).  Charges nothing:
     * callers charge model::kSprayFillCost where their step (1) ends.
     * @return the mapping base addresses.
     */
    std::vector<VAddr> spray(unsigned mappings,
                             std::uint64_t bytes_each,
                             unsigned anon_pages);

    /**
     * DRAM rows in which this process currently owns at least one
     * mapped page, discovered by the access-pattern side channel.
     */
    std::vector<OwnedRow> ownedRows();

    /**
     * Hammer the row containing the attacker page @p vaddr for one
     * refresh window (single-sided: tight read loop on one row).
     */
    dram::HammerResult hammerOwnRow(VAddr vaddr);

    /**
     * Double-sided hammer: requires attacker pages in rows v-1 and
     * v+1 of victim row @p victim_row.  The caller found such a
     * sandwich via findSandwiches().
     */
    dram::HammerResult hammerSandwich(std::uint64_t bank,
                                      std::uint64_t victim_row);

    /** (bank, victim row) pairs. */
    using Sandwiches =
        std::vector<std::pair<std::uint64_t, std::uint64_t>>;

    /**
     * Victim rows sandwiched between two attacker-owned rows: the
     * double-sided targets.
     */
    Sandwiches findSandwiches();

    /**
     * One hammer round (step 2): double-sided on every victim of
     * @p sandwiches, or single-sided on every owned row when there
     * is none.  Adds the passes and flips to @p result.
     * @return whether a mitigation suppressed every pass.
     */
    bool hammerPass(const Sandwiches &sandwiches,
                    AttackResult &result);

    /** Flush the TLB so corrupted PTEs become visible (clflush). */
    void
    flushTlb()
    {
        kernel_.flushTlb();
    }

  private:
    kernel::Kernel &kernel_;
    dram::RowHammerEngine &engine_;
    int pid_;
    SimTime elapsed_ = 0;
};

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_PRIMITIVES_HH
