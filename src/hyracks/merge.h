// Ordered merge of sorted partition streams: the final stage of the
// parallel sort (paper §VII credits "much-improved parallel sorting" as a
// community contribution). Each partition sorts locally — those sorts run
// concurrently because Open() fans out to threads — and this stream then
// k-way merges the sorted results, preserving the global order.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "hyracks/sort.h"
#include "hyracks/stream.h"

namespace asterix::hyracks {

class OrderedMergeStream : public TupleStream {
 public:
  /// `keys` must match the sort keys of the (sorted) children.
  OrderedMergeStream(std::vector<StreamPtr> children, std::vector<SortKey> keys)
      : children_(std::move(children)), keys_(std::move(keys)) {}

  Status Open() override;
  /// Pops up to a frame's worth of merged tuples per call (the heap logic
  /// runs inline, so no per-tuple virtual dispatch downstream).
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

 private:
  Result<int> Compare(const Tuple& a, const Tuple& b) const;
  /// Advance child `child`'s cursor and file it among the heads.
  Status PushFrom(size_t child);

  std::vector<StreamPtr> children_;
  std::vector<SortKey> keys_;
  std::vector<BatchCursor> cursors_;  // one per child, pulled batch-wise
  // Children whose cursor holds a current tuple, kept sorted descending by
  // that tuple via explicit compares (comparators can fail, so
  // std::priority_queue's noexcept-ish comparator contract doesn't fit;
  // linear insertion is fine for small fan-in).
  std::vector<size_t> heads_;
};

}  // namespace asterix::hyracks
