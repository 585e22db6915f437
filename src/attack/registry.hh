/**
 * @file
 * The attack table: one constant row per AttackKind.
 *
 * Every implemented attack has one `AttackSpec` (canonical manifest
 * token, display name, and a runner over kernel+engine).
 * `Machine::runAttack`, the Campaign engine, the scenario manifests
 * and `attack_lab` all dispatch through this table instead of a
 * hard-coded enum switch, so adding attack N+1 is one enumerator
 * plus one row.
 *
 * `AttackKind` lives here (the attack layer) so the table, the parser
 * and the sim layer share one definition; `sim::AttackKind` remains a
 * valid spelling via a using-declaration in machine.hh.
 */

#ifndef CTAMEM_ATTACK_REGISTRY_HH
#define CTAMEM_ATTACK_REGISTRY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "attack/result.hh"
#include "defense/registry.hh"
#include "fuzz/fuzzer.hh"

namespace ctamem::dram {
class RowHammerEngine;
} // namespace ctamem::dram

namespace ctamem::kernel {
class Kernel;
} // namespace ctamem::kernel

namespace ctamem::attack {

/** The attacks the matrix benches run. */
enum class AttackKind : std::uint8_t
{
    ProjectZero,       //!< probabilistic PTE spray [32]
    Drammer,           //!< deterministic templating [37]
    Algorithm1,        //!< the paper's CTA-tailored brute force
    RemapBypass,       //!< row re-mapping vs address-space isolation
    DoubleOwnedBypass, //!< device buffers inside the kernel zone
    UniformHammer,     //!< saturated-window double-sided passes
    SyncHammer,        //!< REF-synchronized pair (fixed "sync" family)
    FuzzHammer,        //!< replay the PatternFuzzer's best pattern
    NumAttacks,        //!< not an attack: the row count of kAttacks
};

/** Rows of kAttacks: one per attack. */
inline constexpr std::size_t kAttackKinds =
    static_cast<std::size_t>(AttackKind::NumAttacks);

/** Human-readable attack name (the Table-1 row heading). */
const char *attackName(AttackKind kind);

/** Canonical manifest token (e.g. "projectzero"). */
const char *attackToken(AttackKind kind);

/**
 * Inverse of attackName/attackToken: accepts either spelling.
 * Returns nullopt for unknown names.
 */
std::optional<AttackKind> parseAttackKind(std::string_view name);

/**
 * Machine-level context handed to every attack runner.  Most attacks
 * only need kernel + engine; the timing-aware ones additionally read
 * which defense they are up against and its knobs (the fuzzer builds
 * private observer replicas from the defense table's factory), and
 * the fuzz search configuration.
 */
struct AttackParams
{
    defense::DefenseKind defense = defense::DefenseKind::None;
    defense::DefenseParams defenseParams;
    fuzz::FuzzParams fuzz;
};

/** Runs one attack against one built machine. */
using AttackRunner = AttackResult (*)(kernel::Kernel &,
                                      dram::RowHammerEngine &,
                                      const AttackParams &);

/** One row of the attack table. */
struct AttackSpec
{
    AttackKind kind;
    const char *name;    //!< canonical manifest token ("drammer")
    const char *display; //!< table heading ("Drammer templating")
    AttackRunner run;
};

/**
 * Every attack, one row per AttackKind in enum order; the build fails
 * (a static_assert next to the definition) when a row is missing or
 * out of order.
 */
extern const std::array<AttackSpec, kAttackKinds> kAttacks;

/** The row of @p kind. */
const AttackSpec &attackSpec(AttackKind kind);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_REGISTRY_HH
