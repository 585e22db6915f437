/**
 * @file
 * The ANVIL trade-off the paper leans on (Section 2.5): detector
 * thresholds low enough to catch first-window hammering also trip on
 * benign row-thrashing workloads.  Sweeps the detection threshold
 * and reports true-positive latency vs false-positive rate.
 */

#include <iomanip>
#include <iostream>

#include "common/rng.hh"
#include "defense/observers.hh"

namespace {

using namespace ctamem;

/** Passes until a double-sided hammer burst is detected (0 = never). */
unsigned
detectionLatency(defense::AnvilObserver &anvil)
{
    for (unsigned pass = 1; pass <= 16; ++pass) {
        if (anvil.onHammer({0, 1000, 1'300'000}))
            return pass;
    }
    return 0;
}

/** Benign workload: hot rows re-activated at realistic rates. */
unsigned
benignFalsePositives(defense::AnvilObserver &anvil,
                     std::uint64_t activations_per_burst,
                     unsigned bursts)
{
    Rng rng(5);
    unsigned fps = 0;
    for (unsigned burst = 0; burst < bursts; ++burst) {
        // A working set of 4 hot rows (streaming + row-buffer
        // thrashing patterns).
        const std::uint64_t row = 100 + rng.below(4);
        if (anvil.noteBenignActivity(0, row, activations_per_burst))
            ++fps;
    }
    return fps;
}

} // namespace

int
main()
{
    std::cout << "ANVIL threshold sweep: attack detection latency "
                 "vs benign false positives\n\n";
    std::cout << std::left << std::setw(14) << "threshold"
              << std::setw(22) << "detects attack after"
              << std::setw(26) << "benign FPs (64 bursts of"
              << '\n'
              << std::left << std::setw(14) << "(activations)"
              << std::setw(22) << "(hammer passes)" << std::setw(26)
              << " 500k activations)" << '\n';

    int status = 0;
    for (const std::uint64_t threshold :
         {std::uint64_t{500'000}, std::uint64_t{1'000'000},
          std::uint64_t{2'000'000}, std::uint64_t{4'000'000},
          std::uint64_t{8'000'000}}) {
        defense::AnvilObserver attack_detector(threshold, 16);
        const unsigned latency = detectionLatency(attack_detector);

        defense::AnvilObserver benign_detector(threshold, 16);
        const unsigned fps =
            benignFalsePositives(benign_detector, 500'000, 64);

        std::cout << std::left << std::setw(14) << threshold
                  << std::setw(22)
                  << (latency ? std::to_string(latency) : "never")
                  << std::setw(26) << fps << '\n';
        // The structural trade-off: thresholds that detect within
        // one refresh window sit below benign burst rates.
        if (threshold <= 1'300'000 && latency == 1 && fps == 0)
            status = 1; // would contradict the paper's FP critique
    }
    std::cout << "\nlow thresholds stop the attack inside the first "
                 "refresh window but alarm on benign hot rows; high "
                 "thresholds are quiet and miss the first window "
                 "(flips land before mitigation).  CTA needs "
                 "neither counters nor thresholds.\n";
    return status;
}
