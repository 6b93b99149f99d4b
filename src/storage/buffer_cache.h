// Buffer cache: fixed-size pool of page frames shared by every index on a
// node (paper Fig. 2 — "disk buffer cache"). LRU replacement, pin/unpin,
// write-back of dirty frames, and hit/miss statistics used by the
// benchmarks (bench_fig2_memory_management, bench_btree_vs_hash).
//
// The pool is latch-sharded: frames are divided across independent shards
// selected by (file, page) hash, so partition-parallel scans do not
// serialize on one mutex (small pools use a single shard to keep exact
// LRU semantics for tests and tiny configurations).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace asterix::storage {

/// All on-disk structures use fixed-size pages.
constexpr size_t kPageSize = 4096;

using FileId = uint32_t;
using PageNo = uint32_t;

class BufferCache;

/// Registry bookkeeping for one cached file (internal; exposed at
/// namespace scope only so FileRef can forward-declare it).
struct BufferCacheFileEntry {
  std::unique_ptr<File> file;
  std::atomic<PageNo> page_count{0};
  bool writable = false;
  // axlint: allow(lock-order): serializes an action (file growth), guards no data
  std::mutex grow_mu;  // serializes NewPage extensions
};

/// RAII pin on a cached page. Data is valid while the handle lives.
/// Call MarkDirty() after mutating the page contents. [[nodiscard]]
/// because dropping the handle unpins the page at once.
class [[nodiscard]] PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return cache_ != nullptr; }
  char* data() const { return data_; }
  void MarkDirty();

 private:
  friend class BufferCache;
  PageHandle(BufferCache* cache, size_t shard, size_t slot, char* data)
      : cache_(cache), shard_(shard), slot_(slot), data_(data) {}
  BufferCache* cache_ = nullptr;
  size_t shard_ = 0;
  size_t slot_ = 0;
  char* data_ = nullptr;
};

/// Cumulative cache statistics (aggregated over shards).
struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;      // page faults (disk reads through the cache)
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A stable reference to a registered file. Holding one lets readers pin
/// pages without touching the global file registry (one mutex acquisition
/// per pin would serialize partition-parallel scans). Obtain via
/// BufferCache::GetFileRef after RegisterFile; cheap to copy.
class FileRef {
 public:
  FileRef() = default;
  bool valid() const { return entry_ != nullptr; }
  FileId id() const { return id_; }

 private:
  friend class BufferCache;
  std::shared_ptr<struct BufferCacheFileEntry> entry_;
  FileId id_ = 0;
};

/// A pool of `num_frames` page buffers fronting a set of registered files.
/// Thread-safe. Pinned pages are never evicted; pinning more pages than a
/// shard's frames is a ResourceExhausted error (callers hold O(1) pins).
class BufferCache {
 public:
  /// `num_shards` = 0 picks automatically (1 for small pools, else 8).
  explicit BufferCache(size_t num_frames, size_t num_shards = 0);
  ~BufferCache();

  /// Register an on-disk file; its pages become readable via Pin().
  Result<FileId> RegisterFile(const std::string& path, bool writable = false);
  /// Drop a file from the cache (flushes dirty pages; invalidates frames).
  Status UnregisterFile(FileId id);

  /// Resolve a registry-free reference for hot-path pinning.
  Result<FileRef> GetFileRef(FileId file) const;

  /// Pin page `page_no` of `file`, faulting it in if needed.
  Result<PageHandle> Pin(FileId file, PageNo page_no);
  /// Registry-free pin (the hot path for scans and probes).
  Result<PageHandle> Pin(const FileRef& file, PageNo page_no);
  /// Allocate + pin a fresh zeroed page at the end of a writable file.
  Result<std::pair<PageNo, PageHandle>> NewPage(FileId file);
  Result<std::pair<PageNo, PageHandle>> NewPage(const FileRef& file);
  /// Write back all dirty pages of `file` and fsync it.
  Status FlushFile(FileId file);

  /// Number of pages currently in `file`.
  Result<PageNo> PageCount(FileId file) const;
  PageNo PageCount(const FileRef& file) const;

  BufferCacheStats stats() const;
  void ResetStats();
  size_t capacity() const { return capacity_; }

 private:
  friend class PageHandle;
  using FileEntry = BufferCacheFileEntry;
  using FileEntryPtr = std::shared_ptr<FileEntry>;

  struct Frame {
    FileId file = 0;
    PageNo page = 0;
    FileEntryPtr file_entry;  // keeps the fd alive for write-back
    bool used = false;
    bool dirty = false;
    int pins = 0;
    std::unique_ptr<char[]> data;
    // The frame's one list node, for its whole life: in `lru` while
    // unpinned, in `pinned` while pinned. Pin and unpin splice it.
    std::list<size_t>::iterator node;
  };

  struct Shard {
    std::mutex mu;
    std::vector<Frame> frames AX_GUARDED_BY(mu);
    // Unpinned frames, least-recent first.
    std::list<size_t> lru AX_GUARDED_BY(mu);
    // Pinned frames, in no particular order.
    std::list<size_t> pinned AX_GUARDED_BY(mu);
    // (file,page) -> slot.
    std::unordered_map<uint64_t, size_t> page_map AX_GUARDED_BY(mu);
    uint64_t hits AX_GUARDED_BY(mu) = 0, misses AX_GUARDED_BY(mu) = 0,
             evictions AX_GUARDED_BY(mu) = 0, writebacks AX_GUARDED_BY(mu) = 0;
    // Registry mirrors (scope = "shard<i>"): lock-free, shared by every
    // BufferCache instance, feed the global metrics snapshot.
    metrics::Counter* m_hits = nullptr;
    metrics::Counter* m_misses = nullptr;
    metrics::Counter* m_evictions = nullptr;
    metrics::Counter* m_writebacks = nullptr;
  };

  size_t ShardOf(FileId file, PageNo page) const;
  Result<FileEntryPtr> LookupFile(FileId id) const AX_EXCLUDES(files_mu_);
  Result<PageHandle> PinInternal(const FileEntryPtr& entry, FileId file,
                                 PageNo page_no, bool fresh_zeroed);
  Result<std::pair<PageNo, PageHandle>> NewPageInternal(
      const FileEntryPtr& entry, FileId file);
  void Unpin(size_t shard, size_t slot);
  void MarkDirtySlot(size_t shard, size_t slot);
  // Finds a victim frame (evicting — and writing back — if necessary) and
  // moves it to `pinned`.
  Result<size_t> GrabFrameLocked(Shard& shard) AX_REQUIRES(shard.mu);
  // Caller holds the mutex of the shard owning `f` (inexpressible to the
  // analysis because Frame does not point back to its shard).
  Status WriteBackLocked(Frame& f);

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex files_mu_;
  std::unordered_map<FileId, FileEntryPtr> files_ AX_GUARDED_BY(files_mu_);
  FileId next_file_id_ AX_GUARDED_BY(files_mu_) = 1;
};

}  // namespace asterix::storage
