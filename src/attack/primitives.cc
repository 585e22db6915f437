#include "attack/primitives.hh"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/log.hh"

namespace ctamem::attack {

using kernel::Process;

std::vector<VAddr>
AttackerContext::spray(unsigned mappings, std::uint64_t bytes_each,
                       unsigned anon_pages)
{
    const int fd = kernel_.createFile(bytes_each);
    const paging::PageFlags rw{true, false, false};
    const std::uint64_t page_bytes = kernel_.pageBytes();
    std::vector<VAddr> bases;
    bases.reserve(mappings);
    for (unsigned i = 0; i < mappings; ++i) {
        const VAddr base = kernel_.mmapFile(pid_, fd, bytes_each, rw);
        // Touching one page per mapping materializes the leaf table.
        if (!kernel_.touchUser(pid_, base))
            break; // ZONE_PTP exhausted under CTA: spray saturated
        bases.push_back(base);
        if (anon_pages == 0)
            continue;
        // Attacker-owned pages between table allocations make the
        // buddy allocator pack aggressor frames next to table frames.
        const VAddr anon =
            kernel_.mmapAnon(pid_, anon_pages * page_bytes, rw);
        for (unsigned page = 0; page < anon_pages; ++page)
            kernel_.touchUser(pid_, anon + page * page_bytes);
    }
    return bases;
}

std::vector<OwnedRow>
AttackerContext::ownedRows()
{
    // Group the process's resident pages by (bank, logical row).
    // Hash-grouped (a red-black tree insert per page dominated the
    // campaign profile), then sorted so callers keep seeing rows in
    // ascending (bank, row) order — hammer sequences, and with them
    // the defenses' RNG streams, must not depend on hashing.
    std::unordered_map<std::uint64_t, std::vector<VAddr>> groups;
    Process &proc = kernel_.process(pid_);
    const std::uint64_t page_bytes = kernel_.pageBytes();
    for (const kernel::Vma &vma : proc.vmas) {
        for (VAddr va = vma.start; va < vma.end();
             va += page_bytes) {
            const paging::WalkResult walk =
                kernel_.mmu().walker().walk(
                    proc.rootPfn, va, paging::AccessType::Read,
                    paging::Privilege::User);
            if (!walk.ok())
                continue; // not yet faulted in
            const dram::Location loc =
                kernel_.dram().locate(walk.phys);
            groups[(loc.bank << 40) | loc.row].push_back(va);
        }
    }
    std::vector<OwnedRow> rows;
    rows.reserve(groups.size());
    for (auto &[key, vaddrs] : groups)
        rows.push_back(OwnedRow{key >> 40, key & ((1ULL << 40) - 1),
                                std::move(vaddrs)});
    std::sort(rows.begin(), rows.end(),
              [](const OwnedRow &a, const OwnedRow &b) {
                  return a.bank != b.bank ? a.bank < b.bank
                                          : a.row < b.row;
              });
    return rows;
}

dram::HammerResult
AttackerContext::hammerOwnRow(VAddr vaddr)
{
    const kernel::UserAccess access = kernel_.readUser(pid_, vaddr);
    if (!access)
        fatal("hammerOwnRow: attacker cannot access its own page");
    const dram::Location loc = kernel_.dram().locate(access.phys);
    charge(model::kHammerRowCost);
    return engine_.hammerRow(loc.bank, loc.row);
}

dram::HammerResult
AttackerContext::hammerSandwich(std::uint64_t bank,
                                std::uint64_t victim_row)
{
    charge(model::kHammerRowCost);
    return engine_.hammerDoubleSided(bank, victim_row);
}

AttackerContext::Sandwiches
AttackerContext::findSandwiches()
{
    std::set<std::pair<std::uint64_t, std::uint64_t>> owned;
    for (const OwnedRow &row : ownedRows())
        owned.insert({row.bank, row.row});

    Sandwiches sandwiches;
    for (const auto &[bank, row] : owned) {
        if (owned.contains({bank, row + 2}))
            sandwiches.emplace_back(bank, row + 1);
    }
    return sandwiches;
}

bool
AttackerContext::hammerPass(const Sandwiches &sandwiches,
                            AttackResult &result)
{
    bool suppressed = true;
    auto record = [&](const dram::HammerResult &hammer) {
        ++result.hammerPasses;
        result.flipsInduced += hammer.total();
        suppressed &= hammer.suppressed;
    };
    if (sandwiches.empty()) {
        // No double-sided targets: single-sided on every row.
        for (const OwnedRow &row : ownedRows())
            record(hammerOwnRow(row.vaddrs.front()));
    } else {
        for (const auto &[bank, victim] : sandwiches)
            record(hammerSandwich(bank, victim));
    }
    return suppressed;
}

} // namespace ctamem::attack
