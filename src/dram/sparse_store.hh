/**
 * @file
 * Sparse byte-addressable backing store for simulated physical memory.
 *
 * We simulate machines with 8-128 GiB of DRAM; only the frames a test
 * or attack actually touches get materialized (4 KiB at a time).
 * Untouched memory reads as the frame fill pattern.
 *
 * Hot-path design: a one-entry last-frame cache (pfn + frame pointer)
 * lets sequential and page-local accesses — page walks hammering the
 * same table frames, streaming workloads — skip the hash lookup, and
 * the word accessors memcpy within a frame instead of going through
 * the byte-wise span loop.  Frame storage is heap-allocated per page
 * and never freed, so the cached pointer stays valid across map
 * rehashes.
 */

#ifndef CTAMEM_DRAM_SPARSE_STORE_HH
#define CTAMEM_DRAM_SPARSE_STORE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace ctamem::dram {

/** Sparse, page-granular storage of simulated memory contents. */
class SparseStore
{
  public:
    /** @param fill byte value newly materialized frames start with */
    explicit SparseStore(std::uint8_t fill = 0) : fill_(fill) {}

    /** Read @p len bytes at @p addr into @p out. */
    void read(Addr addr, void *out, std::size_t len) const;

    /** Write @p len bytes from @p in at @p addr. */
    void write(Addr addr, const void *in, std::size_t len);

    /** Read one byte. */
    std::uint8_t
    readByte(Addr addr) const
    {
        if (const std::uint8_t *frame = peek(addrToPfn(addr)))
            return frame[addr & pageMask];
        return fill_;
    }

    /** Write one byte. */
    void
    writeByte(Addr addr, std::uint8_t value)
    {
        touch(addrToPfn(addr))[addr & pageMask] = value;
    }

    /** Read a little-endian 64-bit word. */
    std::uint64_t
    readU64(Addr addr) const
    {
        const std::size_t offset = addr & pageMask;
        std::uint64_t value;
        if (offset + sizeof(value) <= pageSize) {
            if (const std::uint8_t *frame = peek(addrToPfn(addr)))
                std::memcpy(&value, frame + offset, sizeof(value));
            else
                std::memset(&value, fill_, sizeof(value));
            return value;
        }
        // Straddles a frame boundary: take the span-wise slow path.
        value = 0;
        read(addr, &value, sizeof(value));
        return value;
    }

    /** Write a little-endian 64-bit word. */
    void
    writeU64(Addr addr, std::uint64_t value)
    {
        const std::size_t offset = addr & pageMask;
        if (offset + sizeof(value) <= pageSize) {
            std::memcpy(touch(addrToPfn(addr)) + offset, &value,
                        sizeof(value));
            return;
        }
        write(addr, &value, sizeof(value));
    }

    /** Read one bit (bit @p bit of the byte at @p addr). */
    bool readBit(Addr addr, unsigned bit) const;

    /** Write one bit. */
    void writeBit(Addr addr, unsigned bit, bool value);

    /** True iff the frame containing @p addr has been materialized. */
    bool touched(Addr addr) const;

    /** Number of materialized frames. */
    std::size_t frameCount() const { return frames_.size(); }

    /**
     * Pre-size the frame table for @p frames entries.  Frame pointers
     * survive rehashes anyway; this only saves the rehash work itself
     * on workloads that touch many frames.
     */
    void reserve(std::size_t frames) { frames_.reserve(frames); }

    /** Frame numbers of all materialized frames (unordered). */
    std::vector<Pfn> touchedFrames() const;

  private:
    using Frame = std::unique_ptr<std::uint8_t[]>;

    /** Frame for @p pfn, or nullptr when never written. */
    const std::uint8_t *
    peek(Pfn pfn) const
    {
        if (pfn == cachedPfn_)
            return cachedFrame_;
        return peekSlow(pfn);
    }

    /** Frame for @p pfn, materializing it on first use. */
    std::uint8_t *
    touch(Pfn pfn)
    {
        if (pfn == cachedPfn_)
            return cachedFrame_;
        return touchSlow(pfn);
    }

    const std::uint8_t *peekSlow(Pfn pfn) const;
    std::uint8_t *touchSlow(Pfn pfn);

    std::uint8_t fill_;
    std::unordered_map<Pfn, Frame> frames_;

    /** Last materialized frame hit (never caches absent frames). */
    mutable Pfn cachedPfn_ = invalidPfn;
    mutable std::uint8_t *cachedFrame_ = nullptr;
};

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_SPARSE_STORE_HH
