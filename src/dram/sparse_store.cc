#include "dram/sparse_store.hh"

#include <algorithm>

namespace ctamem::dram {

const std::uint8_t *
SparseStore::peekSlow(Pfn pfn) const
{
    auto it = frames_.find(pfn);
    if (it == frames_.end())
        return nullptr;
    cachedPfn_ = pfn;
    cachedFrame_ = it->second.get();
    return cachedFrame_;
}

std::uint8_t *
SparseStore::touchSlow(Pfn pfn)
{
    auto it = frames_.find(pfn);
    if (it == frames_.end()) {
        // Uninitialized allocation: the fill is the one pass over it.
        auto frame =
            std::make_unique_for_overwrite<std::uint8_t[]>(pageSize);
        std::memset(frame.get(), fill_, pageSize);
        it = frames_.emplace(pfn, std::move(frame)).first;
    }
    cachedPfn_ = pfn;
    cachedFrame_ = it->second.get();
    return cachedFrame_;
}

void
SparseStore::read(Addr addr, void *out, std::size_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const Pfn pfn = addrToPfn(addr);
        const std::size_t offset = addr & pageMask;
        const std::size_t chunk = std::min<std::size_t>(
            len, pageSize - offset);
        if (const std::uint8_t *frame = peek(pfn))
            std::memcpy(dst, frame + offset, chunk);
        else
            std::memset(dst, fill_, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
SparseStore::write(Addr addr, const void *in, std::size_t len)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        const Pfn pfn = addrToPfn(addr);
        const std::size_t offset = addr & pageMask;
        const std::size_t chunk = std::min<std::size_t>(
            len, pageSize - offset);
        std::memcpy(touch(pfn) + offset, src, chunk);
        src += chunk;
        addr += chunk;
        len -= chunk;
    }
}

bool
SparseStore::readBit(Addr addr, unsigned bit) const
{
    return (readByte(addr) >> bit) & 1;
}

void
SparseStore::writeBit(Addr addr, unsigned bit, bool value)
{
    std::uint8_t byte = readByte(addr);
    if (value)
        byte |= static_cast<std::uint8_t>(1u << bit);
    else
        byte &= static_cast<std::uint8_t>(~(1u << bit));
    writeByte(addr, byte);
}

bool
SparseStore::touched(Addr addr) const
{
    return frames_.contains(addrToPfn(addr));
}

std::vector<Pfn>
SparseStore::touchedFrames() const
{
    std::vector<Pfn> pfns;
    pfns.reserve(frames_.size());
    for (const auto &[pfn, frame] : frames_)
        pfns.push_back(pfn);
    return pfns;
}

} // namespace ctamem::dram
