/**
 * @file
 * Framing for the campaign-service pipe protocol.
 *
 * Messages are JSON objects, each preceded by a 4-byte little-endian
 * payload length.  The JSON layer reuses the scenario schema: a
 * submit request carries a PR-4 manifest verbatim, and result frames
 * carry toJson(CellResult) / CampaignReport::toJson() output, so the
 * wire format is the checked-in file format plus framing — nothing to
 * keep in sync.
 *
 * Frame grammar (requests -> responses):
 *
 *   {"type":"ping"}          -> {"type":"pong"}
 *   {"type":"stats"}         -> {"type":"stats", ...counters...}
 *                               ("snapshotCaptures" and
 *                               "snapshotRestores" are always 0:
 *                               misses boot cold, and the keys stay
 *                               because perfbench's svc-session
 *                               reads them)
 *   {"type":"shutdown"}      -> {"type":"bye"}, then the server exits
 *   {"type":"submit","id":J,"manifest":{...}}
 *     -> {"type":"rejected","id":J,"reason":"queue-full",...}   (backpressure)
 *      | {"type":"error","id":J,"message":"..."}                (bad manifest)
 *      | {"type":"accepted","id":J,"cells":N}
 *        then N x {"type":"cell","id":J,"index":i,"cached":b,"result":{...}}
 *        or, for a cell whose machine fails to boot,
 *        {"type":"error","id":J,"index":i,"message":"..."}
 *        (in completion order), then, unless a cell failed,
 *        {"type":"done","id":J,"report":{...}}                  (cells in
 *        manifest order — bit-identical across cold and cached runs)
 */

#ifndef CTAMEM_SVC_WIRE_HH
#define CTAMEM_SVC_WIRE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>

#include "common/json.hh"

namespace ctamem::svc {

/** Thrown on malformed frames: truncation mid-frame, oversized
 *  length prefixes, or payloads that are not valid JSON. */
class WireError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Upper bound on one frame's payload; larger prefixes are treated
 *  as stream corruption rather than allocated. */
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** Write one length-prefixed frame and flush. */
void writeFrame(std::ostream &out, const json::Json &message);

/**
 * Read one frame.  Returns nullopt on clean end-of-stream (EOF
 * before any prefix byte); throws WireError on a partial prefix,
 * truncated payload, oversized length, or invalid JSON.
 */
std::optional<json::Json> readFrame(std::istream &in);

} // namespace ctamem::svc

#endif // CTAMEM_SVC_WIRE_HH
