#include "svc/cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/rng.hh"
#include "sim/scenario.hh"

namespace ctamem::svc {

namespace fs = std::filesystem;

namespace {

std::string
hexDigest(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

} // namespace

std::string
cellCacheKey(const sim::CampaignCell &cell)
{
    const std::string dump = sim::toJson(cell).dump();
    const std::uint64_t content = hashBytes(dump.data(), dump.size());
    // Chained with the result-cache *epoch*, not the schema version:
    // additive schema bumps (v3 -> v4) leave canonical dumps — and so
    // cached results — for unchanged machines intact.
    return hexDigest(stableHash(content, sim::kResultCacheEpoch));
}

ResultCache::ResultCache(std::size_t mem_entries,
                         std::string disk_dir)
    : capacity_(mem_entries ? mem_entries : 1),
      diskDir_(std::move(disk_dir))
{
    stats_.memCapacity = capacity_;
}

std::string
ResultCache::diskPath(const std::string &key) const
{
    return diskDir_ + "/" + key + ".json";
}

std::optional<json::Json>
ResultCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        ++stats_.hits;
        ++stats_.memHits;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return json::Json::parse(it->second.dump);
    }

    if (!diskDir_.empty()) {
        std::ifstream file(diskPath(key), std::ios::binary);
        if (file) {
            std::ostringstream text;
            text << file.rdbuf();
            std::string dump = std::move(text).str();
            try {
                json::Json value = json::Json::parse(dump);
                ++stats_.hits;
                ++stats_.diskHits;
                remember(key, std::move(dump)); // promote
                return value;
            } catch (const json::JsonError &) {
                // A torn or corrupted file is a miss, not an error:
                // the cell simply re-runs and the insert overwrites.
            }
        }
    }

    ++stats_.misses;
    return std::nullopt;
}

void
ResultCache::insert(const std::string &key, const json::Json &value)
{
    std::string dump = value.dump();

    if (!diskDir_.empty()) {
        // Write-then-rename so a concurrent reader never sees a torn
        // file; racing writers of the same key write identical bytes.
        std::error_code ec;
        fs::create_directories(diskDir_, ec);
        const std::string path = diskPath(key);
        const std::string tmp = path + ".tmp";
        {
            std::ofstream file(tmp, std::ios::binary);
            file.write(dump.data(),
                       static_cast<std::streamsize>(dump.size()));
        }
        fs::rename(tmp, path, ec);
        if (ec)
            fs::remove(tmp, ec);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertions;
    remember(key, std::move(dump));
}

void
ResultCache::remember(const std::string &key, std::string dump)
{
    auto it = map_.find(key);
    if (it != map_.end()) {
        it->second.dump = std::move(dump);
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(dump), lru_.begin()});
    while (map_.size() > capacity_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats = stats_;
    stats.memEntries = map_.size();
    return stats;
}

} // namespace ctamem::svc
