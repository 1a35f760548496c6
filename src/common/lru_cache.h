#ifndef FAIRJOB_COMMON_LRU_CACHE_H_
#define FAIRJOB_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fairjob {

// A thread-safe LRU cache striped over N independently locked shards, built
// for the query-serving hot path (docs/serving.md): lookups on distinct keys
// proceed in parallel because each key only ever touches its own shard's
// mutex. Capacity is counted in entries and distributed across the shards at
// construction; each shard evicts its own least-recently-used entry when it
// overflows, so the cache as a whole never exceeds `capacity` entries.
//
// Semantics:
//  * Get moves the entry to the front of its shard's recency list (a hit
//    refreshes the entry) and returns a copy of the value.
//  * Put inserts or overwrites, always leaving the key most-recent.
//  * A capacity of 0 disables the cache: Get always misses, Put is a no-op.
//    (Stats still count the lookups, so hit-rate math stays meaningful.)
//
// Observability: exact counts are maintained under the shard locks and
// exposed via stats() (size() is derived from them); the cache writes no
// metrics of its own. An owner that exports them reads both at export time
// (QuantificationService publishes its cache as `serve.cache.*` through a
// MetricsRegistry collector). Tests assert hits + misses == lookups on them.
//
// Value should be cheap to copy; cache std::shared_ptr<const T> for large T.
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class ShardedLruCache {
 public:
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;  // Puts creating a new entry
    uint64_t updates = 0;     // Puts overwriting an existing entry
    uint64_t evictions = 0;   // entries dropped by capacity pressure
    uint64_t erasures = 0;    // entries dropped by Erase
  };

  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8)
      : capacity_(capacity) {
    // Never create more shards than entries: a zero-capacity shard would
    // silently refuse to cache every key that hashes to it.
    size_t shards = num_shards == 0 ? 1 : num_shards;
    if (capacity > 0 && shards > capacity) shards = capacity;
    if (capacity == 0) shards = 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->capacity =
          capacity / shards + (i < capacity % shards ? 1 : 0);
    }
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  // Returns a copy of the cached value and refreshes its recency, or nullopt.
  std::optional<Value> Get(const Key& key) {
    Shard& shard = *shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stats.lookups;
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    return it->second->second;
  }

  // Inserts or overwrites; the key becomes the most recent of its shard.
  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    Shard& shard = *shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
      ++shard.stats.updates;
      return;
    }
    shard.entries.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.entries.begin());
    ++shard.stats.insertions;
    if (shard.entries.size() > shard.capacity) {
      shard.index.erase(shard.entries.back().first);
      shard.entries.pop_back();
      ++shard.stats.evictions;
    }
  }

  // Removes `key` if present; returns whether anything was removed.
  bool Erase(const Key& key) {
    Shard& shard = *shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.entries.erase(it->second);
    shard.index.erase(it);
    ++shard.stats.erasures;
    return true;
  }

  void Clear() {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stats.erasures += shard->entries.size();
      shard->entries.clear();
      shard->index.clear();
    }
  }

  // Entries held: every entry was inserted once and leaves by eviction or
  // erasure, so the exact counts below determine it.
  size_t size() const {
    Stats total = stats();
    return total.insertions - total.evictions - total.erasures;
  }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  // Which shard `key` lives on — exposed so tests (and capacity planners)
  // can model per-shard eviction exactly.
  size_t ShardOf(const Key& key) const {
    return ShardIndex(key);
  }

  // Keys of one shard in most-recent-first order (test observability).
  std::vector<Key> ShardKeysMostRecentFirst(size_t shard_index) const {
    const Shard& shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<Key> keys;
    keys.reserve(shard.entries.size());
    for (const auto& entry : shard.entries) keys.push_back(entry.first);
    return keys;
  }

  // Exact aggregated counts (summed across shards under their locks).
  Stats stats() const {
    Stats total;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total.lookups += shard->stats.lookups;
      total.hits += shard->stats.hits;
      total.misses += shard->stats.misses;
      total.insertions += shard->stats.insertions;
      total.updates += shard->stats.updates;
      total.evictions += shard->stats.evictions;
      total.erasures += shard->stats.erasures;
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    size_t capacity = 0;
    std::list<std::pair<Key, Value>> entries;  // front = most recent
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                       Hash, Eq>
        index;
    Stats stats;
  };

  size_t ShardIndex(const Key& key) const {
    // Mix the hash before taking the remainder so unordered_map-style
    // low-bit-heavy hashes still spread across shards.
    uint64_t h = static_cast<uint64_t>(Hash{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h % shards_.size());
  }

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fairjob

#endif  // FAIRJOB_COMMON_LRU_CACHE_H_
