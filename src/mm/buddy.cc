#include "mm/buddy.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace ctamem::mm {

BuddyAllocator::BuddyAllocator(Pfn base_pfn, std::uint64_t frames)
    : basePfn_(base_pfn), frames_(frames)
{
    // Tile the range greedily with the largest naturally aligned
    // blocks that fit, exactly as memblock hands pages to the buddy
    // system at boot.
    Pfn pfn = base_pfn;
    std::uint64_t remaining = frames;
    while (remaining > 0) {
        unsigned order = maxOrder;
        while (order > 0 &&
               (((pfn - 0) & ((1ULL << order) - 1)) != 0 ||
                (1ULL << order) > remaining)) {
            --order;
        }
        insertFree(pfn, order);
        freeFrames_ += 1ULL << order;
        pfn += 1ULL << order;
        remaining -= 1ULL << order;
    }
}

void
BuddyAllocator::insertFree(Pfn pfn, unsigned order)
{
    const bool inserted = freeLists_[order].insert(pfn).second;
    if (!inserted)
        ctamem_panic("double free of pfn ", pfn, " order ", order);
}

std::optional<Pfn>
BuddyAllocator::allocate(unsigned order)
{
    if (order > maxOrder)
        return std::nullopt;

    // Find the smallest order with a free block.
    unsigned found = order;
    while (found <= maxOrder && freeLists_[found].empty())
        ++found;
    if (found > maxOrder)
        return std::nullopt;

    // Take the lowest-addressed block and split down to the target.
    Pfn pfn = *freeLists_[found].begin();
    freeLists_[found].erase(freeLists_[found].begin());
    while (found > order) {
        --found;
        // Keep the lower half, free the upper half.
        insertFree(pfn + (1ULL << found), found);
    }
    freeFrames_ -= 1ULL << order;
    return pfn;
}

void
BuddyAllocator::free(Pfn pfn, unsigned order)
{
    if (!contains(pfn) || order > maxOrder)
        ctamem_panic("free of pfn ", pfn, " outside allocator range");
    if (isFree(pfn, 0))
        ctamem_panic("double free of pfn ", pfn, " order ", order);

    freeFrames_ += 1ULL << order;

    // Coalesce with the buddy while possible.
    while (order < maxOrder) {
        const Pfn buddy = pfn ^ (1ULL << order);
        auto it = freeLists_[order].find(buddy);
        if (it == freeLists_[order].end() || !contains(buddy))
            break;
        freeLists_[order].erase(it);
        pfn = std::min(pfn, buddy);
        ++order;
    }
    insertFree(pfn, order);
}

bool
BuddyAllocator::isFree(Pfn pfn, unsigned order) const
{
    // A block is free if some free block of order >= `order` covers it.
    for (unsigned o = order; o <= maxOrder; ++o) {
        const Pfn block_base = pfn & ~((1ULL << o) - 1);
        if (freeLists_[o].contains(block_base)) {
            // The covering block must contain the whole query block.
            return block_base + (1ULL << o) >= pfn + (1ULL << order);
        }
    }
    return false;
}

} // namespace ctamem::mm
