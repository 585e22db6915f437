/**
 * @file
 * Machine snapshot/restore.
 *
 * A freshly booted machine is a pure function of its MachineConfig:
 * its DRAM frames, its ZONE_PTP layout and its observer RNG streams
 * (seeded from config.seed) all follow from it.  A snapshot is
 * therefore the config alone, in a versioned, checksummed binary
 * blob, and restoring cold-boots it; attack runs on the restored
 * machine are bit-identical to runs on a cold boot (property-tested).
 *
 * ctamemd cold-boots every cache miss and never snapshots; perfbench
 * still times a capture and a restore (`svc.snapshot_*_ms`).
 *
 * Snapshots are only taken post-boot: the blob carries no process,
 * page-table, hammer or observer state, so a machine that has any is
 * refused.
 */

#ifndef CTAMEM_SVC_SNAPSHOT_HH
#define CTAMEM_SVC_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/machine.hh"

namespace ctamem::svc {

/** Thrown when a blob fails validation (corrupt, truncated, or from
 *  an unknown format version). */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** In-memory form of a machine snapshot. */
struct MachineSnapshot
{
    sim::MachineConfig config;
};

/**
 * Capture @p machine into a snapshot.  Fatal unless the machine is in
 * its post-boot state: no process, no page-table frame, and no hammer
 * pass, timed activation or REF tick on its engine.  Writes through
 * `dram()` also put a machine past that state; the guard cannot see
 * them, so callers must capture before making any.
 */
MachineSnapshot captureSnapshot(sim::Machine &machine);

/** Build a machine from @p snapshot: a cold boot of its config. */
std::unique_ptr<sim::Machine>
restoreMachine(const MachineSnapshot &snapshot);

/** @name Blob format
 *
 * Little-endian: magic, version, the config as length-prefixed JSON,
 * and a trailing FNV-1a checksum over every preceding byte.
 * deserialize() throws SnapshotError on bad magic, unknown version,
 * checksum mismatch, truncation, an out-of-bounds length field or
 * trailing bytes.
 */
/** @{ */

/** Current blob format version. */
inline constexpr std::uint32_t kSnapshotVersion = 3;

std::vector<std::uint8_t> serialize(const MachineSnapshot &snapshot);

MachineSnapshot deserialize(const std::uint8_t *data,
                            std::size_t size);

inline MachineSnapshot
deserialize(const std::vector<std::uint8_t> &blob)
{
    return deserialize(blob.data(), blob.size());
}

/** @} */

} // namespace ctamem::svc

#endif // CTAMEM_SVC_SNAPSHOT_HH
