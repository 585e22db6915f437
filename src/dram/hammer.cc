#include "dram/hammer.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <list>
#include <mutex>

#include "common/log.hh"
#include "common/rng.hh"

namespace ctamem::dram {

namespace {

/** Flat cache key for (bank, device row). */
std::uint64_t
rowKey(std::uint64_t bank, std::uint64_t device_row)
{
    return (bank << 40) | device_row;
}

/** Largest trip hash a pass of @p intensity trips (FaultModel::tripHash). */
std::uint64_t
tripLimit(double intensity)
{
    return static_cast<std::uint64_t>(intensity * 9007199254740992.0);
}

/** Build the cell records of one row from the fault model. */
std::shared_ptr<const RowVulnProfile>
buildProfile(const FaultModel &faults, Addr base, CellType type,
             std::uint64_t row_bytes, std::vector<std::uint32_t> &scratch)
{
    if (row_bytes > RowVulnProfile::kMaxRowBytes)
        fatal("row profile: ", row_bytes,
              "-byte rows overflow 32-bit cell offsets");
    auto profile = std::make_shared<RowVulnProfile>();
    profile->base = base;
    profile->type = type;

    // A row is whole frames: rowBytes is a power of two >= pageSize.
    scratch.clear();
    for (std::uint64_t frame = 0; frame < row_bytes / pageSize; ++frame) {
        const std::size_t first = scratch.size();
        faults.frameCells(base + frame * pageSize, scratch);
        const auto shift =
            static_cast<std::uint32_t>(frame * FaultModel::kFrameCells);
        for (std::size_t i = first; i < scratch.size(); ++i)
            scratch[i] += shift;
    }

    profile->cellBits.assign(scratch.begin(), scratch.end());
    profile->cellTrips.reserve(scratch.size());
    for (const std::uint32_t cell : scratch) {
        const Addr addr = base + cell / 8;
        const bool dir10 = faults.flipDirection(addr, cell % 8, type) ==
                           FlipDirection::OneToZero;
        profile->cellTrips.push_back(
            faults.tripHash(addr, cell % 8) |
            (dir10 ? RowVulnProfile::kDir10 : 0));
    }
    return profile;
}

/**
 * Process-wide row-profile cache.  Profiles are pure functions of
 * (seed, error stats, row base, cell type, row size), so engines over
 * identical modules — e.g. the per-defense machines of one campaign
 * sweep, which all boot the same seed — share one build per row.
 * Sharded mutexes keep campaign worker threads out of each other's
 * way.  A build costs microseconds, so it runs under its shard's
 * lock: a row wanted by several threads at once is built once.
 *
 * Each shard is LRU-bounded, in entries and in stored cells: service
 * workloads stream arbitrarily many distinct module configs through
 * one process, and an unbounded map would grow with every one of
 * them.  A profile's size is its cell count, which grows with pf and
 * rowBytes, so the cell bound is what holds the cache's memory for
 * any config.  Eviction only drops the cache's own reference —
 * engines hold shared_ptrs to the profiles they are using.
 */
class ProfileCache
{
  public:
    static ProfileCache &
    instance()
    {
        static ProfileCache cache;
        return cache;
    }

    std::shared_ptr<const RowVulnProfile>
    fetch(const FaultModel &faults, Addr base, CellType type,
          std::uint64_t row_bytes, std::vector<std::uint32_t> &scratch)
    {
        const Key key{faults.seed(),
                      std::bit_cast<std::uint64_t>(faults.stats().pf),
                      std::bit_cast<std::uint64_t>(
                          faults.stats().p10True()),
                      row_bytes, base, type};
        Shard &shard = shards_[KeyHash{}(key) % kShards];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            ++shard.hits;
            // Move to the front of the recency list.
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second.lruIt);
            return it->second.profile;
        }
        ++shard.misses;
        auto built = buildProfile(faults, base, type, row_bytes,
                                  scratch);
        shard.lru.push_front(key);
        shard.map.emplace(key, Entry{built, shard.lru.begin()});
        shard.cells += built->vulnerableCells();
        shard.evictToCapacity(perShardCapacity_);
        return built;
    }

    ProfileCacheStats
    stats()
    {
        ProfileCacheStats total;
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total.hits += shard.hits;
            total.misses += shard.misses;
            total.evictions += shard.evictions;
            total.entries += shard.map.size();
        }
        total.capacity = perShardCapacity_ * kShards;
        return total;
    }

    void
    setCapacity(std::size_t max_entries)
    {
        const std::size_t per_shard =
            std::max<std::size_t>(1, max_entries / kShards);
        perShardCapacity_ = per_shard;
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.evictToCapacity(per_shard);
        }
    }

  private:
    struct Key
    {
        std::uint64_t seed;
        std::uint64_t pfBits;
        std::uint64_t p10Bits;
        std::uint64_t rowBytes;
        Addr base;
        CellType type;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &key) const
        {
            return stableHash(key.seed, key.pfBits, key.p10Bits,
                              key.rowBytes, key.base,
                              static_cast<std::uint64_t>(key.type));
        }
    };

    struct Entry
    {
        std::shared_ptr<const RowVulnProfile> profile;
        std::list<Key>::iterator lruIt;
    };

    static constexpr unsigned kShards = 8;
    /**
     * 2,048 entries: an 8-seed Table-1 campaign batch touches about
     * 1,460 distinct rows, 183 a shard on average and at most 225 in
     * one shard over 16 measured batches, so the attack-major grid
     * builds each row once.
     */
    static constexpr std::size_t kDefaultPerShard = 256;
    /**
     * Cells a shard may hold per entry of its capacity: 96 KiB of
     * records.  A Table-1 row has about 1,050 cells, so the entry
     * bound binds first there; rows of more cells than this (pf above
     * ~8e-3 at 128 KiB) meet the cell bound first.
     */
    static constexpr std::size_t kCellsPerEntry = 8192;

    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<Key, Entry, KeyHash> map;
        /** Front = most recently used. */
        std::list<Key> lru;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t cells = 0; //!< vulnerable cells of the entries

        /** Drop LRU entries until at most @p capacity remain, holding
         *  at most @p capacity * kCellsPerEntry cells.  Caller holds
         *  the shard mutex. */
        void
        evictToCapacity(std::size_t capacity)
        {
            while (map.size() > capacity ||
                   cells > capacity * kCellsPerEntry) {
                const auto it = map.find(lru.back());
                cells -= it->second.profile->vulnerableCells();
                map.erase(it);
                lru.pop_back();
                ++evictions;
            }
        }
    };

    Shard shards_[kShards];
    std::atomic<std::size_t> perShardCapacity_{kDefaultPerShard};
};

} // namespace

ProfileCacheStats
profileCacheStats()
{
    return ProfileCache::instance().stats();
}

void
profileCacheSetCapacity(std::size_t max_entries)
{
    ProfileCache::instance().setCapacity(max_entries);
}

const RowVulnProfile &
RowHammerEngine::rowProfile(std::uint64_t bank,
                            std::uint64_t device_row)
{
    static const RowVulnProfile vacant{};
    // The fault model keys on the *logical* address whose data the
    // device row holds; follow the remap table back.
    const Addr base = module_.rowBase(bank, device_row);
    if (base == ~0ULL)
        return vacant; // vacated by re-mapping: no logical data
    const CellType type = module_.cellMap().rowType(device_row);

    const std::uint64_t key = rowKey(bank, device_row);
    auto it = profiles_.find(key);
    if (it != profiles_.end() && it->second->base == base &&
        it->second->type == type) {
        return *it->second; // still describes this device row
    }
    auto shared = ProfileCache::instance().fetch(
        module_.faults(), base, type, module_.geometry().rowBytes(),
        scanBuffer_);
    auto &slot = profiles_[key];
    slot = std::move(shared);
    return *slot;
}

void
RowHammerEngine::disturbDeviceRow(std::uint64_t bank,
                                  std::uint64_t device_row,
                                  double intensity,
                                  HammerResult &result)
{
    const RowVulnProfile &profile = rowProfile(bank, device_row);
    SparseStore &store = module_.store();
    const auto apply = [&](std::uint32_t word, std::uint64_t candidates,
                           std::uint64_t dir10) {
        const Addr waddr = profile.base + word * 8ULL;
        const std::uint64_t stored = store.readU64(waddr);
        // A flip consumes the stored value its direction leaks from.
        const std::uint64_t f10 = candidates & dir10 & stored;
        const std::uint64_t f01 = candidates & ~dir10 & ~stored;
        const std::uint64_t flips = f10 | f01;
        if (!flips)
            return;
        store.writeU64(waddr, (stored & ~f10) | f01);
        result.flips10 += std::popcount(f10);
        result.flips01 += std::popcount(f01);
        if (sink_) {
            for (std::uint64_t rest = flips; rest; rest &= rest - 1) {
                const unsigned k = std::countr_zero(rest);
                sink_->push_back(FlipEvent{
                    waddr + (k >> 3), k & 7u,
                    (f10 >> k) & 1 ? FlipDirection::OneToZero :
                                     FlipDirection::ZeroToOne});
            }
        }
    };

    // Candidate cells: those whose trip hash is at most
    // tripLimit(intensity).  Every hash is below 2^53 (thresholds live
    // in [0,1)), so full intensity trips every vulnerable cell.
    profile.forEachWord(tripLimit(intensity), apply);
}

bool
RowHammerEngine::burst(std::uint64_t bank, std::uint64_t aggressor,
                       std::uint64_t activations, std::uint64_t phase,
                       HammerResult &result)
{
    if (observer_ &&
        observer_->onHammer({bank, aggressor, activations, phase})) {
        result.suppressed = true;
        return false;
    }

    const Geometry &geom = module_.geometry();
    const std::uint64_t rows = geom.rowsPerBank();
    if (pressure_.size() <= bank)
        pressure_.resize(geom.banks());
    std::vector<RowPressure> &table = pressure_[bank];
    if (table.empty())
        table.resize(rows);
    // A victim's `below` pressure counts activations of the device
    // row beneath it (i.e. this aggressor when the victim sits above).
    if (aggressor > 0) {
        RowPressure &victim = table[aggressor - 1];
        pendingRows_ += !victim.pending();
        victim.above += activations;
    }
    if (aggressor + 1 < rows) {
        RowPressure &victim = table[aggressor + 1];
        pendingRows_ += !victim.pending();
        victim.below += activations;
    }
    return true;
}

void
RowHammerEngine::targetedRefresh(std::uint64_t bank,
                                 HammerResult &result)
{
    if (!observer_)
        return;
    trrScratch_.clear();
    observer_->onRef(trrScratch_);
    // Every targeted refresh counts; a row past the bank end has no
    // pressure to clear.
    stats_.at(trrRefreshesId_).increment(trrScratch_.size());
    const std::span<RowPressure> table = bankPressure(bank);
    for (const std::uint64_t device_row : trrScratch_) {
        if (device_row < table.size() && table[device_row].pending()) {
            clearPressure(table[device_row]);
            result.suppressed = true;
        }
    }
}

HammerResult
RowHammerEngine::saturatedWindow(
    std::uint64_t bank, std::initializer_list<std::uint64_t> aggressors)
{
    HammerResult result;
    stats_.at(passesId_).increment();

    // Each aggressor's window closes with its own REF: a sampler
    // holds a window's repeated aggressor at every REF of it.
    for (const std::uint64_t aggressor : aggressors) {
        burst(bank, aggressor, activationsPerPass, 0, result);
        targetedRefresh(bank, result);
    }

    // Ascending aggressors two rows apart name their neighbours in
    // ascending device-row order (the event-sink determinism
    // contract).  A shared victim's second visit finds its pressure
    // cleared; row 0's lower neighbour wraps past the table.
    const std::span<RowPressure> table = bankPressure(bank);
    for (const std::uint64_t aggressor : aggressors) {
        for (const std::uint64_t row : {aggressor - 1, aggressor + 1}) {
            if (row < table.size())
                evaluatePressure(bank, row, table[row], result);
        }
    }

    if (result.suppressed)
        stats_.at(suppressedPassesId_).increment();
    return result;
}

HammerResult
RowHammerEngine::hammerRow(std::uint64_t bank, std::uint64_t row)
{
    const Geometry &geom = module_.geometry();
    if (bank >= geom.banks() || row >= geom.rowsPerBank())
        fatal("hammerRow: row out of range");
    return saturatedWindow(bank, {module_.deviceRow(bank, row)});
}

HammerResult
RowHammerEngine::hammerDoubleSided(std::uint64_t bank,
                                   std::uint64_t victim_row)
{
    const Geometry &geom = module_.geometry();
    if (bank >= geom.banks() || victim_row >= geom.rowsPerBank())
        fatal("hammerDoubleSided: row out of range");

    const std::uint64_t victim = module_.deviceRow(bank, victim_row);
    if (victim == 0 || victim + 1 >= geom.rowsPerBank()) {
        // No sandwich possible at the bank edge; fall back to
        // single-sided behaviour on the one existing neighbour.
        return hammerRow(bank, victim_row);
    }
    return saturatedWindow(bank, {victim - 1, victim + 1});
}

void
RowHammerEngine::activate(std::uint64_t bank, std::uint64_t row,
                          std::uint64_t activations,
                          std::uint64_t phase, HammerResult &result)
{
    const Geometry &geom = module_.geometry();
    if (bank >= geom.banks() || row >= geom.rowsPerBank())
        fatal("activate: row out of range");
    if (activations == 0)
        return;

    stats_.at(timedActivationsId_).increment(activations);
    if (!burst(bank, module_.deviceRow(bank, row), activations, phase,
               result))
        stats_.at(suppressedPassesId_).increment();
}

double
RowHammerEngine::pressureIntensity(const RowPressure &pressure) const
{
    // Paired (double-sided) activations disturb at full intensity,
    // the one-sided remainder at single-sided intensity; a whole
    // window of activations reproduces the pass intensities exactly.
    const std::uint64_t paired =
        2 * std::min(pressure.below, pressure.above);
    const std::uint64_t unpaired =
        pressure.below + pressure.above - paired;
    const double dose =
        (doubleSidedIntensity * static_cast<double>(paired) +
         singleSidedIntensity * static_cast<double>(unpaired)) /
        static_cast<double>(activationsPerPass);
    return std::min(doubleSidedIntensity, dose);
}

void
RowHammerEngine::clearPressure(RowPressure &pressure)
{
    pendingRows_ -= pressure.pending();
    pressure = {};
}

void
RowHammerEngine::evaluatePressure(std::uint64_t bank,
                                  std::uint64_t device_row,
                                  RowPressure &pressure,
                                  HammerResult &result)
{
    if (!pressure.pending())
        return;
    const double intensity = pressureIntensity(pressure);
    clearPressure(pressure);
    const std::uint64_t before10 = result.flips10;
    const std::uint64_t before01 = result.flips01;
    disturbDeviceRow(bank, device_row, intensity, result);
    stats_.at(flips10Id_).increment(result.flips10 - before10);
    stats_.at(flips01Id_).increment(result.flips01 - before01);
}

void
RowHammerEngine::refTick(std::uint64_t bank, HammerResult &result)
{
    stats_.at(refTicksId_).increment();
    targetedRefresh(bank, result);

    // This REF refreshes the rows whose slot this interval is —
    // device rows slot, slot + refsPerWindow, ... — evaluating the
    // charge they lost since their last refresh.  Visiting them in
    // ascending order lands flips in ascending device-row order (the
    // event-sink determinism contract).
    const std::span<RowPressure> table = bankPressure(bank);
    for (std::uint64_t row = refInterval_ % refTiming_.refsPerWindow;
         row < table.size(); row += refTiming_.refsPerWindow) {
        evaluatePressure(bank, row, table[row], result);
    }

    ++refInterval_;
}

void
RowHammerEngine::drainPressure(std::uint64_t bank,
                               HammerResult &result)
{
    const std::span<RowPressure> table = bankPressure(bank);
    for (std::uint64_t row = 0; row < table.size(); ++row)
        evaluatePressure(bank, row, table[row], result);
}

} // namespace ctamem::dram
