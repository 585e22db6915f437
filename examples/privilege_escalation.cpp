/**
 * @file
 * A step-by-step walk through the RowHammer PTE-based privilege
 * escalation (Seaborn & Dullien) against the vulnerable kernel,
 * using the attack primitives directly — then the same steps against
 * CTA, narrating exactly where the defense bites.
 *
 *   ./build/examples/privilege_escalation
 */

#include <iostream>

#include "attack/exploit.hh"
#include "attack/primitives.hh"
#include "dram/hammer.hh"
#include "kernel/kernel.hh"

namespace {

using namespace ctamem;

kernel::KernelConfig
makeConfig(bool with_cta)
{
    kernel::KernelConfig config;
    config.dram.capacity = 256 * MiB;
    config.dram.rowBytes = 128 * KiB;
    config.dram.banks = 1;
    config.dram.errors.pf = 1e-3;
    config.dram.seed = 1234;
    config.policy = with_cta ? kernel::AllocPolicy::Cta :
                               kernel::AllocPolicy::Standard;
    config.cta.ptpBytes = 4 * MiB;
    return config;
}

int
runScenario(bool with_cta)
{
    std::cout << (with_cta ? "\n=== With CTA ===\n"
                           : "=== Without CTA ===\n");
    kernel::Kernel kernel(makeConfig(with_cta));
    dram::RowHammerEngine engine(kernel.dram());

    const int pid = kernel.createProcess("attacker");
    attack::AttackerContext ctx(kernel, engine, pid);

    // -- Step 1: spray page tables ------------------------------
    // Map one file many times; each mapping makes the kernel
    // allocate a leaf page table.  Interleave our own pages so the
    // buddy allocator lays aggressor frames next to table frames.
    const int fd = kernel.createFile(64 * KiB);
    const paging::PageFlags rw{true, false, false};
    std::vector<VAddr> mappings;
    for (int i = 0; i < 512; ++i) {
        const VAddr base = kernel.mmapFile(pid, fd, 64 * KiB, rw);
        if (base == 0 || !kernel.touchUser(pid, base))
            break;
        // Touch every page: each leaf table fills with 16 PTEs, so
        // a hammered table row offers 16x the flip targets.
        for (VAddr va = base; va < base + 64 * KiB; va += pageSize)
            kernel.touchUser(pid, va);
        mappings.push_back(base);
        const VAddr anon = kernel.mmapAnon(pid, 2 * pageSize, rw);
        kernel.touchUser(pid, anon);
        kernel.touchUser(pid, anon + pageSize);
    }
    std::cout << "step 1: sprayed " << mappings.size()
              << " mappings; kernel now holds "
              << kernel.pageTableBytes() / KiB
              << " KiB of page tables\n";
    if (with_cta) {
        const Addr lwm = kernel.ptpLayout()->lowWaterMark;
        std::size_t above = 0;
        for (const auto &[pfn, level] : kernel.pageTableFrames())
            above += pfnToAddr(pfn) >= lwm;
        std::cout << "        (CTA: " << above << "/"
                  << kernel.pageTableFrames().size()
                  << " table frames above the low water mark, all "
                     "true-cells)\n";
    }

    // -- Step 2: hammer sandwiched rows -------------------------
    const auto sandwiches = ctx.findSandwiches();
    std::uint64_t flips = 0;
    for (const auto &[bank, victim] : sandwiches)
        flips += ctx.hammerSandwich(bank, victim).total();
    std::cout << "step 2: double-side hammered " << sandwiches.size()
              << " victim rows, " << flips << " bit flips landed\n";

    // -- Step 3: scan for PTE self-reference --------------------
    auto self_ref =
        attack::detectSelfReference(kernel, pid, mappings, 64 * KiB);
    if (!self_ref) {
        std::cout << "step 3: no mapping translates into a page "
                     "table — self-reference impossible ("
                  << (with_cta ? "monotonic pointers cannot climb "
                                 "into ZONE_PTP"
                               : "unexpected on this seed")
                  << ")\n";
        return with_cta ? 0 : 1;
    }
    std::cout << "step 3: self-reference! vaddr 0x" << std::hex
              << self_ref->vaddr << " now reads page-table frame at "
              << "0x" << self_ref->tableAddr << std::dec
              << (self_ref->writable ? " (user-writable)" : "")
              << '\n';

    // -- Step 4: escalate ---------------------------------------
    const bool root = attack::escalate(kernel, pid, *self_ref);
    std::cout << "step 4: crafted PTEs through the exposed table -> "
              << (root ? "read the kernel secret: ROOT" : "failed")
              << '\n';
    return (root && !with_cta) ? 0 : 1;
}

} // namespace

int
main()
{
    const int vulnerable = runScenario(false);
    const int protected_run = runScenario(true);
    std::cout << "\nscenarios behaved as published: "
              << ((vulnerable == 0 && protected_run == 0) ? "YES"
                                                          : "NO")
              << '\n';
    return vulnerable == 0 && protected_run == 0 ? 0 : 1;
}
