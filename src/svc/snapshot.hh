/**
 * @file
 * Machine snapshot/restore.
 *
 * A snapshot captures a freshly booted machine — its MachineConfig,
 * sim time, observer RNG state and materialized SparseStore frames —
 * into a versioned, checksummed binary blob.  A machine is a pure
 * function of its config, so restoring cold-boots the stored config
 * and writes the rest back; attack runs on the restored machine are
 * bit-identical to runs on a cold boot (property-tested).
 *
 * ctamemd cold-boots every cache miss and never snapshots; perfbench
 * still times a capture and a restore (`svc.snapshot_*_ms`).
 *
 * Snapshots are only taken post-boot, before any process exists:
 * the blob deliberately carries no process, VMA or page-table state.
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
    /** One materialized SparseStore frame. */
    struct Frame
    {
        Pfn pfn = 0;
        std::vector<std::uint8_t> bytes; //!< exactly pageSize bytes
    };

    sim::MachineConfig config;
    SimTime simTime = 0;
    /** Observer generator words; empty for RNG-free defenses. */
    std::vector<std::uint64_t> observerRng;
    /** Materialized frames, ascending pfn. */
    std::vector<Frame> frames;
};

/**
 * Capture @p machine into a snapshot.  Fatal unless the machine is in
 * its post-boot state: no process and no page-table frame.
 */
MachineSnapshot captureSnapshot(sim::Machine &machine);

/**
 * Build a machine from @p snapshot: cold-boot its config, then
 * restore DRAM contents, observer RNG state and sim time.
 */
std::unique_ptr<sim::Machine>
restoreMachine(const MachineSnapshot &snapshot);

/** @name Blob format
 *
 * Little-endian, versioned, with a trailing FNV-1a checksum over
 * every preceding byte.  deserialize() throws SnapshotError on bad
 * magic, unknown version, checksum mismatch, truncation, or any
 * out-of-bounds length field.
 */
/** @{ */

/** Current blob format version. */
inline constexpr std::uint32_t kSnapshotVersion = 2;

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
