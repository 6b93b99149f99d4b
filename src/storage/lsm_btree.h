// LSM B+tree: the native storage structure of asterix-lite datasets
// (paper §III item 5, Fig. 2). Writes go to an in-memory component; when it
// exceeds its budget it is rotated to an immutable memory component and
// flushed to an on-disk B+tree component with a Bloom filter. Deletes write
// antimatter entries. Reads consult the mutable memory component, then
// immutable memory components, then disk components newest-to-oldest; scans
// merge all components, resolving each key to its newest version.
//
// The component stack and its maintenance (rotation, backpressure,
// background flushes and merges, recovery) belong to the shared
// LsmLifecycle (lsm_lifecycle.h); this file supplies the B+tree's component
// format and its reads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/bloom.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/columnar.h"
#include "storage/lsm_lifecycle.h"

namespace asterix::storage {

/// On-disk layout of flushed/merged components (paper §VII: columnar
/// storage). Row components are B+trees (.cmp); columnar components are
/// per-column page files (.col, see columnar.h). A tree may hold a mix —
/// reads and merges dispatch per component, and merges converge the stack
/// to the configured format.
enum class StorageFormat : uint8_t { kRow, kColumnar };

/// Configuration for an LSM B+tree: the shared lifecycle settings plus the
/// B+tree's component format.
struct LsmOptions : LsmLifecycleOptions {
  int bloom_bits_per_key = 10;
  /// Compress values in disk components (paper §VII: storage compression).
  /// Applies to row components only; columnar components are uncompressed.
  bool compress_values = false;
  /// Format for components written by this tree's flushes and merges.
  /// Components written with kColumnar fall back to a row component when a
  /// buffered value is not a columnar-representable ADM record (see
  /// RecordIsColumnar); existing components of either format stay readable.
  StorageFormat storage_format = StorageFormat::kRow;
};

/// An LSM-managed B+tree over byte-string keys. Thread-safe.
class LsmBTree {
 public:
  /// Open (or create) the tree; existing components in `options.dir` with
  /// the configured name prefix are recovered in sequence order. A
  /// component whose Bloom file is missing is an incomplete flush (the
  /// Bloom file is the flush commit point) — its data file is removed and
  /// the rows are recovered from the WAL by the caller's replay.
  static Result<std::unique_ptr<LsmBTree>> Open(const LsmOptions& options);

  /// Insert or overwrite.
  Status Put(const std::string& key, const std::string& value);
  /// Delete via antimatter.
  Status Delete(const std::string& key);
  /// Point lookup (Bloom filters skip non-containing components).
  Result<bool> Get(const std::string& key, std::string* value) const;

  /// Force all memory components to disk (no-op when empty). Synchronous:
  /// returns once every pending immutable component is flushed.
  Status Flush() { return life_.Flush(); }
  /// Merge every disk component into one (full merge). Synchronous.
  Status ForceFullMerge() { return life_.ForceFullMerge(); }

  LsmStats stats() const;

  /// Snapshot iterator over the merged view (newest version per key,
  /// antimatter suppressed). The snapshot is stable: flushes/merges after
  /// creation do not affect it.
  ///
  /// value() is a view, valid until the next Next, Seek, SeekToFirst or the
  /// iterator's destruction. It points into a pinned leaf page, a buffer
  /// the iterator owns (overflow values, decompressed or columnar entries),
  /// the copied mutable memory component, or an immutable memory component
  /// the iterator pins (DESIGN.md §4k). key() is an owned copy: keys are
  /// short enough for std::string's inline buffer.
  class Iterator {
   public:
    Status Seek(const std::string& key);
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    Status Next();
    const std::string& key() const { return key_; }
    std::string_view value() const { return value_; }

   private:
    friend class LsmBTree;
    struct Source;
    /// `sources` newest first. With `surface_antimatter` a deleted key is
    /// returned (antimatter() true, empty value) instead of skipped.
    Iterator(std::vector<std::unique_ptr<Source>> sources,
             bool surface_antimatter);
    /// Lands on the smallest key across the sources, the newest source
    /// winning a tie. Sources stay where they are until Next.
    Status Settle();
    /// Steps every source that holds a version of key_ past it.
    Status StepPastKey();
    bool antimatter() const { return antimatter_; }

    std::vector<std::unique_ptr<Source>> sources_;
    bool surface_antimatter_ = false;
    bool valid_ = false;
    bool antimatter_ = false;
    std::string key_;
    std::string_view value_;

   public:
    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;
    ~Iterator();
  };

  Result<Iterator> NewIterator() const;

  /// One fully materialized LSM row (used by scan snapshots and the
  /// component writers' buffered input).
  struct SnapshotEntry {
    std::string key;
    bool antimatter = false;
    std::string value;
  };

  /// A stable view of the tree for external batch scans (hyracks'
  /// ColumnarScanSource): the memory components merged and copied out,
  /// plus per-disk-component readers kept alive by `keepalive` even across
  /// concurrent flushes and merges. Exactly one of tree/columnar is set
  /// per component.
  struct ComponentRef {
    std::shared_ptr<const void> keepalive;
    const BTree* tree = nullptr;
    const ColumnarReader* columnar = nullptr;
  };
  struct ScanSnapshot {
    std::vector<SnapshotEntry> mem;       // sorted by key
    std::vector<ComponentRef> components; // newest first
  };
  ScanSnapshot GetScanSnapshot() const;

 private:
  struct DiskComponent : LsmComponent {
    std::unique_ptr<BTree> tree;          // row component
    std::unique_ptr<ColumnarReader> col;  // columnar component
    BloomFilter bloom;
    bool columnar() const { return col != nullptr; }
    uint64_t entries() const {
      return columnar() ? col->row_count() : tree->entry_count();
    }
  };
  using ComponentPtr = std::shared_ptr<DiskComponent>;

  struct MemEntry {
    bool antimatter = false;
    std::string value;
  };

  /// The B+tree's component format for the shared lifecycle: a row (.cmp)
  /// or columnar (.col) data file plus a Bloom filter (.bloom), the commit
  /// point. Deletes are antimatter rows.
  struct Format {
    using Mem = std::map<std::string, MemEntry>;
    using Disk = DiskComponent;
    static constexpr const char* kDataExts[] = {".cmp", ".col"};
    static constexpr const char* kCommitExt = ".bloom";

    Status BuildFlush(const Mem& mem, bool has_older, const std::string& base,
                      Disk* out) const;
    Status BuildMerge(const std::vector<ComponentPtr>& victims,
                      bool includes_oldest, const std::string& base,
                      Disk* out) const;
    Status OpenComponent(Disk* comp) const;
    /// Write `rows` (sorted) in the configured format, falling back to a
    /// row component when a value is not columnar-representable.
    Status Write(const std::vector<SnapshotEntry>& rows,
                 const std::string& base, Disk* out) const;

    LsmOptions options;
  };
  using Lifecycle = LsmLifecycle<Format>;

  explicit LsmBTree(const LsmOptions& options);

  /// Merge victim components into one sorted row stream, keeping antimatter
  /// unless the run includes the oldest component. Drives the Iterator's
  /// merge over the victims.
  static Result<std::vector<SnapshotEntry>> BuildMergedRows(
      const std::vector<ComponentPtr>& victims, bool includes_oldest);

  Lifecycle life_;
};

/// Row-component entry codec, shared with external scan sources that read
/// raw B+tree values out of a ScanSnapshot: each entry is a 1-byte marker
/// (live / antimatter / live-compressed) followed by the payload.
bool DiskEntryIsAntimatter(std::string_view raw);
/// The live value of entry `raw`, into `*out` (replacing its contents).
Status DecodeDiskEntry(std::string_view raw, std::string* out);

}  // namespace asterix::storage
