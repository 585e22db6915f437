/**
 * @file
 * Name-keyed attack runner registry.
 *
 * Every implemented attack registers one `AttackSpec` (canonical
 * manifest token, display name, and a runner closure over
 * kernel+engine).  `Machine::runAttack`, the Campaign engine, the
 * scenario manifests and `attack_lab` all dispatch through this table
 * instead of a hard-coded enum switch, so adding attack N+1 is one
 * registration, not an edit to the sim layer.
 *
 * `AttackKind` lives here (the attack layer) so the registry, the
 * parser and the sim layer share one definition; `sim::AttackKind`
 * remains a valid spelling via a using-declaration in machine.hh.
 */

#ifndef CTAMEM_ATTACK_REGISTRY_HH
#define CTAMEM_ATTACK_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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
    UniformHammer,     //!< untimed whole-window double-sided passes
    SyncHammer,        //!< REF-synchronized pair (fixed "sync" family)
    FuzzHammer,        //!< replay the PatternFuzzer's best pattern
};

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
 * private observer replicas from the registry factory), and the fuzz
 * search configuration.
 */
struct AttackParams
{
    defense::DefenseKind defense = defense::DefenseKind::None;
    defense::DefenseParams defenseParams;
    fuzz::FuzzParams fuzz;
};

/** One registered attack. */
struct AttackSpec
{
    AttackKind kind = AttackKind::ProjectZero;
    std::string name;    //!< canonical manifest token ("drammer")
    std::string display; //!< table heading ("Drammer templating")
    /** Run the attack against one built machine. */
    std::function<AttackResult(kernel::Kernel &,
                               dram::RowHammerEngine &,
                               const AttackParams &)>
        run;
};

/** The process-wide attack table (built-ins self-register). */
class Registry
{
  public:
    static Registry &instance();

    /** Register a spec; fatals on a duplicate kind or name. */
    void add(AttackSpec spec);

    const AttackSpec *find(AttackKind kind) const;
    /** Lookup by canonical token or display name. */
    const AttackSpec *find(std::string_view name) const;

    /** All specs, in registration order (stable addresses). */
    const std::vector<std::unique_ptr<AttackSpec>> &all() const
    {
        return specs_;
    }

  private:
    Registry() = default;

    std::vector<std::unique_ptr<AttackSpec>> specs_;
};

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_REGISTRY_HH
