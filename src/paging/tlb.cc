#include "paging/tlb.hh"

#include <bit>

namespace ctamem::paging {

Tlb::Tlb(std::size_t capacity, std::size_t ways, unsigned page_shift)
    : pageShift_(page_shift)
{
    if (capacity == 0)
        capacity = 1;
    if (ways == 0)
        ways = 1;
    ways_ = std::min(ways, capacity);
    sets_ = std::bit_floor(capacity / ways_);
    if (sets_ == 0)
        sets_ = 1;
    if (sets_ == 1)
        ways_ = capacity; // fully associative: keep every entry
    slots_.resize(sets_ * ways_);
    clocks_.resize(sets_, 0);
    hitsId_ = stats_.registerCounter("hits");
    missesId_ = stats_.registerCounter("misses");
    evictionsId_ = stats_.registerCounter("evictions");
    flushesId_ = stats_.registerCounter("flushes");
}

const TlbEntry *
Tlb::lookup(Pfn root, VAddr vaddr)
{
    const VAddr vpn = vaddr >> pageShift_;
    const std::size_t set = setIndex(root, vpn);
    Slot *base = slots_.data() + set * ways_;
    for (std::size_t way = 0; way < ways_; ++way) {
        Slot &slot = base[way];
        if (slot.valid && slot.entry.vpn == vpn &&
            slot.entry.root == root) {
            slot.stamp = ++clocks_[set];
            stats_.at(hitsId_).increment();
            return &slot.entry;
        }
    }
    stats_.at(missesId_).increment();
    return nullptr;
}

void
Tlb::insert(const TlbEntry &entry)
{
    const std::size_t set = setIndex(entry.root, entry.vpn);
    Slot *base = slots_.data() + set * ways_;
    Slot *victim = nullptr;
    for (std::size_t way = 0; way < ways_; ++way) {
        Slot &slot = base[way];
        if (!slot.valid) {
            if (!victim || victim->valid)
                victim = &slot;
            continue;
        }
        if (slot.entry.vpn == entry.vpn &&
            slot.entry.root == entry.root) {
            // Refresh in place.
            slot.entry = entry;
            slot.stamp = ++clocks_[set];
            return;
        }
        if (!victim || (victim->valid && slot.stamp < victim->stamp))
            victim = &slot;
    }
    if (victim->valid)
        stats_.at(evictionsId_).increment();
    else
        ++live_;
    victim->entry = entry;
    victim->valid = true;
    victim->stamp = ++clocks_[set];
}

void
Tlb::flushAll()
{
    for (Slot &slot : slots_)
        slot.valid = false;
    for (std::uint64_t &clock : clocks_)
        clock = 0;
    live_ = 0;
    stats_.at(flushesId_).increment();
}

void
Tlb::flushPage(VAddr vaddr)
{
    // The set index depends on the root, so a (vpn, any-root) flush
    // must scan the whole array — same cost as the old list walk.
    const VAddr vpn = vaddr >> pageShift_;
    for (Slot &slot : slots_) {
        if (slot.valid && slot.entry.vpn == vpn) {
            slot.valid = false;
            --live_;
        }
    }
}

} // namespace ctamem::paging
