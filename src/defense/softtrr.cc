#include "defense/softtrr.hh"

#include <algorithm>

namespace ctamem::defense {

bool
SoftTrrObserver::onHammer(const dram::DisturbanceEvent &event)
{
    const std::uint64_t key =
        (event.bank << 40) | event.aggressorRow;

    Slot *slot = nullptr;
    for (Slot &candidate : table_) {
        if (candidate.key == key) {
            slot = &candidate;
            break;
        }
    }
    if (!slot) {
        if (table_.size() < maxTracked_) {
            table_.push_back(Slot{key, 0});
            slot = &table_.back();
        } else {
            // Recycle the coldest slot (first on ties, so eviction
            // is deterministic).
            slot = &*std::min_element(
                table_.begin(), table_.end(),
                [](const Slot &a, const Slot &b) {
                    return a.count < b.count;
                });
            slot->key = key;
            slot->count = 0;
            ++evictions_;
        }
    }

    slot->count += event.activations;
    if (slot->count >= threshold_) {
        // Target-row refresh: re-read the victims, restoring their
        // charge; the burst induces no flips.
        slot->count = 0;
        ++mitigations_;
        return true;
    }
    return false;
}

} // namespace ctamem::defense
