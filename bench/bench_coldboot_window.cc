/**
 * @file
 * Cold-boot guard characterization (Section 8): across temperatures
 * and off-times, when does the guard proceed vs halt, and does its
 * decision always bound DRAM remanence?  (Safe = it never proceeds
 * while any sampled secret cell still holds charge.)  The sweep is
 * seeded, so every row's decision and surviving secret bits are
 * pinned too: exit 1 when a row is unsafe or drifts from its pin.
 */

#include <iomanip>
#include <iostream>
#include <vector>

#include "common/rng.hh"
#include "dram/module.hh"
#include "ext/coldboot.hh"
#include "profile/retention_profiler.hh"

namespace {

using namespace ctamem;

struct Cell
{
    Addr addr;
    unsigned bit;
};

/** One (temperature, off-time) row and the outcome it is pinned to. */
struct Row
{
    double celsius;
    double offSec;
    ext::BootDecision decision;
    std::uint64_t alive; //!< secret bits still charged at boot
};

constexpr ext::BootDecision kHalt = ext::BootDecision::Halt;
constexpr ext::BootDecision kProceed = ext::BootDecision::Proceed;

constexpr Row kRows[] = {
    {20.0, 0.1, kHalt, 4096},     {20.0, 1.0, kHalt, 2643},
    {20.0, 10.0, kHalt, 34},      {20.0, 60.0, kProceed, 0},
    {20.0, 600.0, kProceed, 0},   {20.0, 3600.0, kProceed, 0},
    {-10.0, 0.1, kHalt, 4096},    {-10.0, 1.0, kHalt, 4096},
    {-10.0, 10.0, kHalt, 2310},   {-10.0, 60.0, kHalt, 87},
    {-10.0, 600.0, kProceed, 0},  {-10.0, 3600.0, kProceed, 0},
    {-40.0, 0.1, kHalt, 4096},    {-40.0, 1.0, kHalt, 4096},
    {-40.0, 10.0, kHalt, 4030},   {-40.0, 60.0, kHalt, 2721},
    {-40.0, 600.0, kHalt, 42},    {-40.0, 3600.0, kProceed, 0},
};

dram::DramConfig
moduleConfig()
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.seed = 15;
    return config;
}

const char *
decisionName(ext::BootDecision decision)
{
    return decision == kProceed ? "PROCEED" : "HALT";
}

} // namespace

int
main()
{
    std::cout << "Cold-boot guard decision windows (8 canaries from "
                 "64 KiB profile)\n\n";
    std::cout << std::left << std::setw(12) << "temp (C)"
              << std::setw(14) << "off-time (s)" << std::setw(12)
              << "decision" << std::setw(20) << "secret bits alive"
              << std::setw(10) << "safe" << '\n';

    // Retention is a function of the module seed alone, so one
    // profile picks the canaries of every row's module.
    dram::DramModule profiled(moduleConfig());
    const std::vector<profile::CellRetention> canaries =
        profile::RetentionProfiler(profiled).findCanaries(0, 64 * KiB,
                                                          8);

    int status = 0;
    for (const Row &row : kRows) {
        dram::DramModule module(moduleConfig());
        ext::ColdBootGuard guard(module, canaries);

        // "Secrets": 4096 charged bits spread over a distant row.
        Rng rng(3);
        std::vector<Cell> secrets;
        for (int i = 0; i < 4096; ++i) {
            const Cell cell{2 * 128 * KiB + rng.below(64 * KiB),
                            static_cast<unsigned>(rng.below(8))};
            module.store().writeBit(
                cell.addr, cell.bit,
                dram::chargedBit(module.cellTypeAt(cell.addr)));
            secrets.push_back(cell);
        }
        guard.arm();
        module.powerOff(
            static_cast<SimTime>(row.offSec *
                                 static_cast<double>(seconds)),
            row.celsius);

        const ext::BootDecision decision = guard.check();
        std::uint64_t alive = 0;
        for (const Cell &cell : secrets) {
            if (module.store().readBit(cell.addr, cell.bit) ==
                dram::chargedBit(module.cellTypeAt(cell.addr))) {
                ++alive;
            }
        }
        // Safety: never proceed while remanence persists.
        const bool safe = decision == kHalt || alive == 0;
        if (!safe)
            status = 1;
        std::cout << std::left << std::setw(12) << row.celsius
                  << std::setw(14) << row.offSec << std::setw(12)
                  << decisionName(decision) << std::setw(20) << alive
                  << std::setw(10) << (safe ? "yes" : "NO") << '\n';
        if (decision != row.decision || alive != row.alive) {
            std::cout << "  ^ drifted from its pin: "
                      << decisionName(row.decision) << ' ' << row.alive
                      << '\n';
            status = 1;
        }
    }
    std::cout << "\nthe guard is conservative: it proceeds only "
                 "after even the longest-retention canaries decayed, "
                 "which upper-bounds every other cell's remanence at "
                 "the same temperature.\n";
    return status;
}
