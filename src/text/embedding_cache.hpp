// Bounded, mutex-sharded LRU cache from canonicalized job text to its
// embedding vector.
//
// Production job streams are dominated by recurring job names (the
// MIT Supercloud challenge and GPU-telemetry workload studies both
// report heavy recurrence; Fugaku's trace is no different), so the
// serving layer sees the same canonical feature string — "user,job
// name,cores,nodes,env,frequency" — over and over. Encoding is the
// dominant per-request cost (paper §V-C: SBERT at ~2 ms/job dwarfs
// model inference), which makes text-keyed embedding reuse a near-free
// latency win.
//
// Design:
//  * The key is the canonical feature string itself (FeatureEncoder::
//    feature_string). Identical text => identical embedding because the
//    encoder is deterministic; the cache is valid for exactly one
//    encoder identity (dim + hashing seed + weights). Swapping the
//    encoder config requires clear(); retraining the *model* does not —
//    embeddings do not depend on model parameters (DESIGN.md §8).
//  * N independent shards, each its own mutex + LRU list + index map,
//    selected by key hash: concurrent /classify traffic on different
//    keys rarely contends on the same lock.
//  * Each shard holds at most capacity/shards entries; insertion past
//    that evicts the shard's least-recently-used entry, so memory is
//    strictly bounded (capacity * (dim * 4 bytes + key)).
//  * hits/misses/insertions/evictions are lock-free atomics surfaced by
//    the /metrics endpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace mcb {

struct EmbeddingCacheConfig {
  std::size_t capacity = 4096;  ///< total entries across all shards
  std::size_t shards = 8;       ///< independent mutex-protected segments
};

class ShardedEmbeddingCache {
 public:
  explicit ShardedEmbeddingCache(std::size_t dim, EmbeddingCacheConfig config = {});

  std::size_t dim() const noexcept { return dim_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Copy the cached embedding for `key` into `out` (size dim()) and
  /// promote the entry to most-recently-used. Returns false on miss.
  bool lookup(std::string_view key, std::span<float> out);

  /// Insert (or refresh) `key` -> `embedding`; evicts the shard's LRU
  /// entry when the shard is full. Vectors of the wrong width are
  /// ignored (defensive: one cache serves one encoder identity).
  void insert(std::string_view key, std::span<const float> embedding);

  /// Drop every entry (encoder identity change); stats are preserved.
  void clear();

  /// Entries currently resident (racy snapshot across shards).
  std::size_t size() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Shard {
    /// Per-shard capability: each shard's state is guarded by its own
    /// mutex, so touching one shard's LRU under another shard's lock is
    /// a compile error on Clang, not a latent cross-shard race.
    mutable Mutex mutex;
    /// Front = most recently used. The list owns the key string; the
    /// index refers into it.
    std::list<std::pair<std::string, std::vector<float>>> lru MCB_GUARDED_BY(mutex);
    std::unordered_map<std::string, std::list<std::pair<std::string, std::vector<float>>>::iterator,
                       StringHash, std::equal_to<>>
        index MCB_GUARDED_BY(mutex);
  };

  Shard& shard_for(std::string_view key) noexcept;
  const Shard& shard_for(std::string_view key) const noexcept;

  std::size_t dim_;
  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace mcb
