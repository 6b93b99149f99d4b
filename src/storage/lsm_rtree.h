// LSM R-tree secondary index (paper §III item 8, §V-B study). Follows the
// AsterixDB design: each disk component pairs an immutable R-tree of
// inserted entries with a B+tree of deleted keys; an entry from component i
// is live iff no newer component's deleted-key set contains it. This is the
// "change in how deletions were handled for LSM" the paper mentions.
//
// The component stack and its maintenance belong to the shared LsmLifecycle
// (lsm_lifecycle.h), exactly as for LsmBTree; this file supplies the
// R-tree's component format and its queries.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/lsm_lifecycle.h"
#include "storage/rtree.h"

namespace asterix::storage {

/// Configuration for an LSM R-tree: the shared lifecycle settings plus the
/// R-tree's leaf format.
struct LsmRTreeOptions : LsmLifecycleOptions {
  bool point_mode = true;   // the paper's point-storage optimization
};

/// LSM-managed R-tree mapping MBRs (or points) to opaque payloads
/// (encoded primary keys). Thread-safe.
class LsmRTree {
 public:
  static Result<std::unique_ptr<LsmRTree>> Open(const LsmRTreeOptions& options);

  Status Insert(const adm::Rectangle& mbr, const std::string& payload);
  /// Record deletion of a previously inserted (mbr, payload) entry.
  Status Remove(const adm::Rectangle& mbr, const std::string& payload);

  /// All live entries whose MBR intersects `query`.
  Result<std::vector<SpatialEntry>> Query(const adm::Rectangle& query) const;

  /// Synchronous barrier: all memory components flushed to disk.
  Status Flush() { return life_.Flush(); }
  Status ForceFullMerge() { return life_.ForceFullMerge(); }
  /// `disk_bytes` counts R-tree pages only (not the deleted-key trees).
  LsmStats stats() const;

 private:
  struct DiskComponent : LsmComponent {
    std::unique_ptr<RTree> rtree;
    std::unique_ptr<BTree> deleted;  // deleted-key B+tree
  };
  using ComponentPtr = std::shared_ptr<DiskComponent>;

  struct MemTable {
    std::vector<SpatialEntry> inserts;
    std::set<std::string> deleted;
    bool empty() const { return inserts.empty() && deleted.empty(); }
    size_t size() const { return inserts.size(); }
  };

  /// The R-tree's component format for the shared lifecycle: an R-tree of
  /// inserted entries (.rt) plus a B+tree of deleted keys (.del), the
  /// commit point.
  struct Format {
    using Mem = MemTable;
    using Disk = DiskComponent;
    static constexpr const char* kDataExts[] = {".rt"};
    static constexpr const char* kCommitExt = ".del";

    Status BuildFlush(const Mem& mem, bool has_older, const std::string& base,
                      Disk* out) const;
    Status BuildMerge(const std::vector<ComponentPtr>& victims,
                      bool includes_oldest, const std::string& base,
                      Disk* out) const;
    Status OpenComponent(Disk* comp) const;
    Status Write(const std::vector<SpatialEntry>& inserts,
                 const std::set<std::string>& deleted,
                 const std::string& base, Disk* out) const;

    LsmRTreeOptions options;
  };
  using Lifecycle = LsmLifecycle<Format>;

  explicit LsmRTree(const LsmRTreeOptions& options);
  static std::string DeleteKey(const adm::Rectangle& mbr,
                               const std::string& payload);

  Lifecycle life_;
};

}  // namespace asterix::storage
