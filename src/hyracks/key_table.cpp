#include "hyracks/key_table.h"

namespace asterix::hyracks {

uint32_t KeyTable::Find(std::span<const adm::Value> key, uint64_t hash) const {
  if (buckets_.empty()) return kAbsent;
  for (uint32_t id = buckets_[Bucket(hash)]; id != kAbsent; id = next_[id]) {
    if (hashes_[id] != hash) continue;
    const adm::Value* stored = keys_.data() + static_cast<size_t>(id) * arity_;
    size_t i = 0;
    while (i < arity_ && stored[i].Compare(key[i]) == 0) i++;
    if (i == arity_) return id;
  }
  return kAbsent;
}

uint32_t KeyTable::Insert(std::span<adm::Value> key, uint64_t hash) {
  if (hashes_.size() >= buckets_.size()) Grow();
  const auto id = static_cast<uint32_t>(hashes_.size());
  for (auto& v : key) keys_.push_back(std::move(v));
  hashes_.push_back(hash);
  const size_t b = Bucket(hash);
  next_.push_back(buckets_[b]);
  buckets_[b] = id;
  return id;
}

void KeyTable::Grow() {
  // Load factor at most 1; start at 16 buckets and double.
  const size_t n = buckets_.empty() ? 16 : buckets_.size() * 2;
  shift_ = 64;
  for (size_t s = n; s > 1; s >>= 1) shift_--;
  buckets_.assign(n, kAbsent);
  for (uint32_t id = 0; id < hashes_.size(); id++) {
    const size_t b = Bucket(hashes_[id]);
    next_[id] = buckets_[b];
    buckets_[b] = id;
  }
}

void KeyTable::Clear() {
  // Swap with empties: clear() alone would keep the capacity allocated.
  std::vector<adm::Value>().swap(keys_);
  std::vector<uint64_t>().swap(hashes_);
  std::vector<uint32_t>().swap(next_);
  std::vector<uint32_t>().swap(buckets_);
  shift_ = 64;
}

}  // namespace asterix::hyracks
