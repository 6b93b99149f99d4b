// Hash tables keyed by ADM values. The join build side and the group-by
// table find equal keys with adm::Value::Hash and adm::Value::Compare — the
// equality every other operator uses, so int 1 and double 1.0 are one key
// here as they are in a comparison, a sort or DISTINCT. The exchange's hash
// routing folds key values with the same KeyHashStep, and spill and grace
// partitioning split on the same hash.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adm/value.h"

namespace asterix::hyracks {

inline constexpr uint64_t kKeyHashSeed = 1469598103934665603ULL;

/// Fold one key value into a composite key hash (FNV-style over the
/// values' own hashes, which are consistent with Compare).
inline uint64_t KeyHashStep(uint64_t h, const adm::Value& v) {
  return (h ^ v.Hash()) * 1099511628211ULL;
}

/// Hash of a composite key.
inline uint64_t HashKey(std::span<const adm::Value> key) {
  uint64_t h = kKeyHashSeed;
  for (const auto& v : key) h = KeyHashStep(h, v);
  return h;
}

/// The spill (or grace) partition of a key hash at a recursion level.
/// The hash is salted with the level and fully remixed (splitmix64):
/// XOR-only salting would keep the equivalence classes mod `partitions`,
/// so an oversized partition would map onto a single child partition at
/// every level and never split.
inline size_t SpillPartitionOf(uint64_t hash, int level, size_t partitions) {
  uint64_t x = hash + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(level + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % partitions);
}

/// Maps distinct composite keys of a fixed arity to dense ids 0, 1, 2, ...
/// in insertion order; callers keep their per-key payload in vectors
/// indexed by id. Keys are stored flat, `arity` values per id, and each
/// bucket chains its ids. Not thread-safe (one per operator partition).
class KeyTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  explicit KeyTable(size_t arity) : arity_(arity) {}

  /// Id of the stored key equal to `key` (value by value, by Compare), or
  /// kAbsent. `hash` must be HashKey(key).
  uint32_t Find(std::span<const adm::Value> key, uint64_t hash) const;
  /// Store a key that Find just missed and return its id. The key's values
  /// are moved out of `key`.
  uint32_t Insert(std::span<adm::Value> key, uint64_t hash);

  size_t size() const { return hashes_.size(); }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  std::span<adm::Value> key(uint32_t id) {
    return {keys_.data() + static_cast<size_t>(id) * arity_, arity_};
  }

  /// Drop every key and give the memory back.
  void Clear();

 private:
  size_t Bucket(uint64_t hash) const {
    // Fibonacci hashing takes the top bits of a multiplicative remix: key
    // hashes arriving through a hash exchange all share their value mod
    // the partition count, so the low bits alone would fill a fraction of
    // the buckets.
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void Grow();

  size_t arity_;
  std::vector<adm::Value> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> next_;     // chain link per id
  std::vector<uint32_t> buckets_;  // head id per bucket (power-of-two count)
  int shift_ = 64;
};

}  // namespace asterix::hyracks
