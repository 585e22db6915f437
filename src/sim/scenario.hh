/**
 * @file
 * JSON serialization of the experiment types: the bridge between the
 * in-memory Campaign API and checked-in scenario manifests.
 *
 * Guarantees:
 *  - `fromJson(toJson(x)) == x` for MachineConfig and CampaignCell
 *    (property-tested over the Table-1 grid);
 *  - `toJson` output is deterministic byte-for-byte (golden-file
 *    tested), so manifests and reports diff cleanly across runs;
 *  - unknown manifest keys are a hard error (typo protection), while
 *    keys starting with "comment" are ignored everywhere, giving the
 *    checked-in manifests a place for prose.
 *
 * Manifest schema (Campaign::fromManifest / campaignFromJson):
 *
 *   {
 *     "name": "paper-default",          // optional
 *     "comment": "... free text ...",   // ignored, anywhere
 *     "base": { MachineConfig fields }, // optional shared defaults
 *     "defenses": ["none", "cta"],      // grid mode: base x defense
 *     "configs": [ {fields}, ... ],     // or explicit config list
 *     "attacks": ["projectzero"],       // grid columns
 *     "cells": [                        // and/or explicit cells
 *       {"config": {fields}, "attack": "drammer", "label": "..."}
 *     ]
 *   }
 *
 * Grid cells are attack-major (for each attack, one cell per config)
 * — the exact layout Campaign::addGrid produces, so a manifest and
 * its programmatic equivalent yield cell-for-cell identical reports.
 */

#ifndef CTAMEM_SIM_SCENARIO_HH
#define CTAMEM_SIM_SCENARIO_HH

#include "common/json.hh"
#include "sim/campaign.hh"

namespace ctamem::sim {

/**
 * Version of the manifest/config JSON schema.  Checked-in manifests
 * carry it explicitly ("schema_version"); campaignFromJson hard-errors
 * on a mismatch, and the campaign service folds it into every result
 * cache key, so cached rows never outlive the schema that produced
 * them.
 *
 * History: v1 = the PR-4 schema (implicit); v2 adds schema_version
 * itself plus the ctaMultiLevelZones / ctaScreenPageSize machine
 * fields (Section 7 zoning, previously unreachable from manifests);
 * v3 adds the TRR-sampler knobs (trrSamplers / trrWindow) and the
 * nested "fuzz" block (REF timing + pattern-search configuration
 * consumed by the uniform / sync_hammer / fuzz_hammer attacks);
 * v4 adds the "arch" / "granule" machine keys (paging backend
 * selection).  v4 is a strict superset of v3 — both keys default to
 * the historical x86-64 machine and are omitted from output when at
 * their defaults — so v3 manifests are still accepted and keep their
 * exact meaning.
 */
inline constexpr std::uint64_t kScenarioSchemaVersion = 4;

/**
 * Epoch folded into campaign-service result cache keys.  Distinct
 * from the schema version: bumping the schema for a purely additive
 * change (like v3 -> v4) must NOT invalidate cached results for
 * manifests whose meaning is unchanged, so the epoch only moves when
 * result semantics move.  Last moved with schema v3.
 */
inline constexpr std::uint64_t kResultCacheEpoch = 3;

/** @name MachineConfig <-> JSON */
/** @{ */
json::Json toJson(const MachineConfig &config);

/**
 * Parse a MachineConfig object.  Missing keys keep the values of
 * @p base (defaults to a default-constructed config), unknown keys
 * throw json::JsonError.
 */
MachineConfig machineConfigFromJson(const json::Json &j,
                                    const MachineConfig &base = {});

/**
 * The checks machineConfigFromJson applies to every parsed config:
 * throws json::JsonError naming the key when @p config has an
 * unbuildable (arch, granule) pair or DRAM or ZONE_PTP sizes a boot
 * would reject.  For configs built in code, e.g. from command-line
 * flags.
 */
void checkMachineConfig(const MachineConfig &config);
/** @} */

/** @name CampaignCell / results <-> JSON */
/** @{ */
json::Json toJson(const CampaignCell &cell);
CampaignCell campaignCellFromJson(const json::Json &j,
                                  const MachineConfig &base = {});
json::Json toJson(const CellResult &result);

/**
 * Parse a CellResult back out of toJson's output — the read side of
 * the content-addressed result cache.  Strict: unknown keys and
 * unknown outcome names throw json::JsonError.
 */
CellResult cellResultFromJson(const json::Json &j);
/** @} */

/**
 * Build a campaign from a parsed manifest object (see the schema in
 * the file comment).  Throws json::JsonError on schema violations.
 */
Campaign campaignFromJson(const json::Json &manifest);

} // namespace ctamem::sim

#endif // CTAMEM_SIM_SCENARIO_HH
