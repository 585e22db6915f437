/**
 * @file
 * The timing-aware hammer family: uniform, REF-synchronized, and
 * fuzzer-found patterns against one sprayed machine.
 *
 * All three share the ProjectZero-style spray (file mappings
 * interleaved with anon pages, so aggressor frames pack next to
 * page-table frames) and the self-reference exploitation chain; they
 * differ only in *how* the sandwiched victims are hammered:
 *
 *  - runUniformHammer: saturated-window double-sided passes — the
 *    baseline in-DRAM TRR reliably suppresses (the sampler always
 *    holds a monotonously repeated aggressor at REF time);
 *  - runSyncHammer: replays the fixed "sync" pattern family through
 *    the engine's timed path — REF-synchronized, but with no decoy
 *    structure, so a sampler that catches either aggressor still
 *    refreshes the victim;
 *  - runFuzzHammer: runs fuzz::PatternFuzzer against a private
 *    replica of this machine's module + defense, then replays the
 *    best pattern found on the real machine (Blacksmith's
 *    template-then-exploit flow).
 *
 * Replayed patterns anchor at (first sandwich victim - 1), so entry
 * row offsets 0 and 2 are exactly the attacker's sandwich aggressor
 * pair; decoy entries land on nearby sprayed rows.
 */

#ifndef CTAMEM_ATTACK_SYNC_HAMMER_HH
#define CTAMEM_ATTACK_SYNC_HAMMER_HH

#include "attack/primitives.hh"
#include "attack/registry.hh"
#include "attack/result.hh"

namespace ctamem::attack {

/**
 * All three spray 32 mappings of 64 KiB with two aggressor pages
 * each; the uniform attack hammers up to four rounds of passes.
 */
AttackResult runUniformHammer(kernel::Kernel &kernel,
                              dram::RowHammerEngine &engine,
                              const AttackParams &params);

AttackResult runSyncHammer(kernel::Kernel &kernel,
                           dram::RowHammerEngine &engine,
                           const AttackParams &params);

AttackResult runFuzzHammer(kernel::Kernel &kernel,
                           dram::RowHammerEngine &engine,
                           const AttackParams &params);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_SYNC_HAMMER_HH
