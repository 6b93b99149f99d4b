// The LSM component lifecycle shared by every LSM index — asterix-lite's
// version of AsterixDB's generic "LSM-ification" framework (BDMS paper,
// arXiv 1407.0454). One LsmLifecycle owns a tree's component stack (the
// mutable memory component, the rotated immutable memory components
// awaiting flush, the disk components) and the maintenance protocol over
// it: rotation at the memory budget, write backpressure, the per-tree flush
// and merge slots, background scheduling, the merge policy, close-drain,
// the sticky maintenance error, component pinning and crash recovery. See
// DESIGN.md §4f.
//
// An index supplies only its format, as the `Format` type parameter:
//
//   using Mem = ...;   // mutable memory component: default-constructible,
//                      // with empty() and size() (entries, for stats)
//   using Disk = ...;  // disk component type, derived from LsmComponent
//   static constexpr const char* kDataExts[];  // data file extensions
//   static constexpr const char* kCommitExt;   // commit-point extension
//   // Build a disk component from a frozen memory component. Deletes need
//   // persisting only when `has_older` (a disk component lies below).
//   Status BuildFlush(const Mem& mem, bool has_older,
//                     const std::string& base, Disk* out) const;
//   // Merge a run of victims (newest first). Deletes need persisting only
//   // when the run does not reach the oldest component.
//   Status BuildMerge(const std::vector<std::shared_ptr<Disk>>& victims,
//                     bool includes_oldest, const std::string& base,
//                     Disk* out) const;
//   // Open a recovered component (paths and sequence numbers are set).
//   Status OpenComponent(Disk* comp) const;
//
// Build hooks write `out->data_path` (named `base` + one of kDataExts) and
// then `out->commit_path` (already set: `base` + kCommitExt). The commit
// point is written last, so a data file without one is a torn flush. They
// open what they wrote and set `out->bytes`. Hooks run without the lock:
// their inputs are frozen or pinned.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/maintenance.h"

namespace asterix::storage {

class BufferCache;

/// Which components a merge combines (paper: "merge policies").
enum class MergePolicyKind {
  kNoMerge,    // never merge (read amplification grows unbounded)
  kConstant,   // merge everything once there are > max_components components
  kPrefix,     // merge the newest run whose total size fits max_merged_bytes
};

struct MergePolicy {
  MergePolicyKind kind = MergePolicyKind::kConstant;
  int max_components = 5;                      // kConstant
  size_t max_merged_bytes = 64u << 20;         // kPrefix
};

/// Settings every LSM index shares.
struct LsmLifecycleOptions {
  std::string dir;          // directory holding component files
  std::string name;         // component filename prefix
  BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 1u << 20;
  MergePolicy merge_policy;
  bool auto_flush = true;   // flush automatically when the budget is hit
  /// Background maintenance pool. When set, budget-tripping writes rotate
  /// the memory component and return immediately; component builds and
  /// merges run on the pool. When null, maintenance runs inline on the
  /// writing thread (the pre-scheduler behavior). The scheduler must
  /// outlive the tree.
  MaintenanceScheduler* scheduler = nullptr;
  /// Backpressure bound: a write blocks only while this many immutable
  /// memory components are already pending flush (async mode only). The
  /// wait is surfaced through the write-stall metrics.
  size_t max_pending_immutables = 2;
};

/// Point-in-time statistics (benchmarks read these).
struct LsmStats {
  size_t mem_entries = 0;  // mutable + pending immutable memory components
  size_t mem_bytes = 0;
  size_t pending_immutables = 0;  // immutable memory components not yet flushed
  size_t disk_components = 0;
  size_t columnar_components = 0;  // subset of disk_components
  uint64_t disk_entries = 0;   // includes antimatter
  uint64_t disk_bytes = 0;     // data files (commit-point files excluded)
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t write_stalls = 0;   // writes that hit the backpressure bound
};

/// The counters one index kind reports lifecycle events to; a null counter
/// is not reported.
struct LsmMetrics {
  metrics::Counter* flushes = nullptr;
  metrics::Counter* flush_bytes = nullptr;
  metrics::Counter* merges = nullptr;
  metrics::Counter* merge_bytes = nullptr;
  metrics::Counter* write_stalls = nullptr;
  metrics::Counter* write_stall_ns = nullptr;
  metrics::Counter* incomplete_dropped = nullptr;
};

/// A disk component's identity and files. Components are reference
/// counted: readers (gets, iterators, scan snapshots, in-flight merges) pin
/// them, so a merge that retires one only marks it obsolete, and its files
/// are unlinked when the last pin drops. The unlink runs after the derived
/// format's members (its open file handles) are destroyed.
struct LsmComponent {
  uint64_t seq_lo = 0, seq_hi = 0;
  uint64_t bytes = 0;       // data file size (the prefix merge policy's input)
  std::string data_path;
  std::string commit_path;  // written last: the flush commit point
  bool obsolete = false;

  LsmComponent() = default;
  LsmComponent(const LsmComponent&) = delete;
  LsmComponent& operator=(const LsmComponent&) = delete;
  ~LsmComponent();
};

/// One data file found by the recovery scan.
struct LsmComponentFile {
  uint64_t seq_lo = 0, seq_hi = 0;
  std::string data_path, commit_path;
};

/// `<dir>/<name>_<lo>_<hi>`: the path of a component's files, minus the
/// extension.
std::string LsmComponentBase(const std::string& dir, const std::string& name,
                             uint64_t lo, uint64_t hi);

/// The recovery scan: every `<name>_<lo>_<hi><ext>` data file in `dir` with
/// an extension in `data_exts`, newest (highest sequence number) first. A
/// data file without its `<commit_ext>` commit point is a flush that was in
/// flight at a crash: it is unlinked and counted in `dropped` (if set), and
/// the caller's WAL replay re-ingests its rows.
Result<std::vector<LsmComponentFile>> ScanLsmComponentFiles(
    const std::string& dir, const std::string& name,
    std::span<const char* const> data_exts, const char* commit_ext,
    metrics::Counter* dropped);

/// The component stack of one LSM tree and its maintenance protocol.
/// Thread-safe.
template <class Format>
class LsmLifecycle {
 public:
  using Mem = typename Format::Mem;
  using Disk = typename Format::Disk;
  using DiskPtr = std::shared_ptr<Disk>;
  /// An immutable (rotated-out) memory component awaiting flush. It is
  /// frozen at rotation, so readers may probe it without the lock once they
  /// hold the pointer.
  struct Frozen {
    uint64_t seq = 0;  // component sequence number assigned at rotation
    size_t bytes = 0;
    Mem mem;
  };
  using FrozenPtr = std::shared_ptr<const Frozen>;
  /// The pinned stack below the mutable component, each list newest first.
  struct Stack {
    std::vector<FrozenPtr> immutables;
    std::vector<DiskPtr> disk;
  };

  LsmLifecycle(const LsmLifecycleOptions& options, Format format,
               const LsmMetrics& metrics)
      : options_(options), format_(std::move(format)), metrics_(metrics) {}

  /// Close-drain: waits for in-flight background maintenance, including
  /// tasks still queued on the scheduler (they run, see closing_, and
  /// bail). Unflushed memory components are dropped: WAL truncation only
  /// follows a drained checkpoint flush, so replay recovers them.
  ~LsmLifecycle() {
    std::unique_lock<std::mutex> lock(mu_);
    closing_ = true;
    maint_cv_.notify_all();
    while (tasks_inflight_ > 0 || flush_active_ || merge_active_) {
      maint_cv_.wait(lock);
    }
  }

  LsmLifecycle(const LsmLifecycle&) = delete;
  LsmLifecycle& operator=(const LsmLifecycle&) = delete;

  /// Creates the component directory and recovers the complete components
  /// already in it, dropping torn flushes (see ScanLsmComponentFiles).
  /// Call once, before any other method.
  Status Open() AX_EXCLUDES(mu_) {
    if (options_.cache == nullptr) {
      return Status::InvalidArgument("LsmLifecycleOptions.cache is required");
    }
    AX_RETURN_NOT_OK(fs::CreateDirs(options_.dir));
    AX_ASSIGN_OR_RETURN(
        auto files,
        ScanLsmComponentFiles(options_.dir, options_.name, Format::kDataExts,
                              Format::kCommitExt, metrics_.incomplete_dropped));
    std::vector<DiskPtr> recovered;
    for (auto& file : files) {
      auto comp = std::make_shared<Disk>();
      comp->seq_lo = file.seq_lo;
      comp->seq_hi = file.seq_hi;
      comp->data_path = std::move(file.data_path);
      comp->commit_path = std::move(file.commit_path);
      AX_RETURN_NOT_OK(format_.OpenComponent(comp.get()));
      recovered.push_back(std::move(comp));
    }
    std::lock_guard<std::mutex> lock(mu_);
    components_ = std::move(recovered);
    if (!components_.empty()) next_seq_ = components_.front()->seq_hi + 1;
    return Status::OK();
  }

  /// The write path: `mutate(mem, has_older)` applies one write to the
  /// mutable component under the lock and returns the bytes it adds
  /// (`has_older`: an immutable or disk component lies below the mutable
  /// one). The bytes are then charged to the memory budget, which may
  /// rotate, flush, merge or stall the writer (see HandleBudgetLocked).
  /// Fails with the sticky maintenance error.
  template <class F>
  Status Write(F&& mutate) AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!maint_error_.ok()) return maint_error_;
    mem_bytes_ += mutate(mem_, !immutables_.empty() || !components_.empty());
    return HandleBudgetLocked(lock);
  }

  /// Calls `read(mem)` on the mutable component under the lock and pins
  /// the rest of the stack for lock-free reading.
  template <class F>
  Stack Pin(F&& read) const AX_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    read(static_cast<const Mem&>(mem_));
    return Stack{immutables_, components_};
  }

  /// Force all memory components to disk (no-op when empty). Synchronous:
  /// returns once every pending immutable component is flushed.
  Status Flush() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!maint_error_.ok()) return maint_error_;
    RotateMemLocked();
    return DrainImmutablesLocked(lock);
  }

  /// Flush, then merge every disk component into one. Synchronous.
  Status ForceFullMerge() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!maint_error_.ok()) return maint_error_;
    RotateMemLocked();
    AX_RETURN_NOT_OK(DrainImmutablesLocked(lock));
    while (merge_active_) maint_cv_.wait(lock);
    if (components_.size() < 2) return Status::OK();
    return MergeRunLocked(lock, components_.size());
  }

  /// Lifecycle statistics; `add(disk, &stats)` adds each disk component's
  /// format-specific figures (entries, columnar count).
  template <class F>
  LsmStats Stats(F&& add) const AX_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    LsmStats s;
    s.mem_entries = mem_.size();
    s.mem_bytes = mem_bytes_;
    s.pending_immutables = immutables_.size();
    for (const auto& imm : immutables_) {
      s.mem_entries += imm->mem.size();
      s.mem_bytes += imm->bytes;
    }
    s.disk_components = components_.size();
    for (const auto& comp : components_) {
      s.disk_bytes += comp->bytes;
      add(static_cast<const Disk&>(*comp), &s);
    }
    s.flushes = flushes_;
    s.merges = merges_;
    s.write_stalls = write_stalls_;
    return s;
  }

 private:
  static void Count(metrics::Counter* counter, uint64_t n) {
    if (counter != nullptr) counter->Add(n);
  }

  /// A new component for sequence range [lo, hi], named by `*base`.
  DiskPtr NewComponent(uint64_t lo, uint64_t hi, std::string* base) const {
    auto comp = std::make_shared<Disk>();
    comp->seq_lo = lo;
    comp->seq_hi = hi;
    *base = LsmComponentBase(options_.dir, options_.name, lo, hi);
    comp->commit_path = *base + Format::kCommitExt;
    return comp;
  }

  /// Freeze the mutable memory component into immutables_ (no-op if empty).
  void RotateMemLocked() AX_REQUIRES(mu_) {
    if (mem_.empty()) return;
    auto imm = std::make_shared<Frozen>();
    imm->seq = next_seq_++;
    imm->bytes = mem_bytes_;
    imm->mem = std::move(mem_);
    mem_ = Mem();
    mem_bytes_ = 0;
    immutables_.insert(immutables_.begin(), std::move(imm));
  }

  /// Backpressure: wait until fewer than max_pending_immutables immutable
  /// components are pending (records the write-stall metrics).
  Status WaitForRoomLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    const size_t bound = std::max<size_t>(1, options_.max_pending_immutables);
    if (immutables_.size() < bound) return maint_error_;
    write_stalls_++;
    Count(metrics_.write_stalls, 1);
    const uint64_t t0 = metrics::NowNs();
    while (immutables_.size() >= bound && maint_error_.ok() && !closing_) {
      maint_cv_.wait(lock);
    }
    Count(metrics_.write_stall_ns, metrics::NowNs() - t0);
    return maint_error_;
  }

  /// Post-write budget handling: rotate + schedule (async) or rotate +
  /// drain + merge inline (sync). `lock` owns mu_ on entry and exit.
  Status HandleBudgetLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    if (!options_.auto_flush || mem_bytes_ <= options_.mem_budget_bytes) {
      return Status::OK();
    }
    if (options_.scheduler != nullptr) {
      AX_RETURN_NOT_OK(WaitForRoomLocked(lock));
      // Another writer may have rotated while we waited.
      if (mem_bytes_ <= options_.mem_budget_bytes) return Status::OK();
      RotateMemLocked();
      ScheduleFlushLocked();
      return Status::OK();
    }
    // Inline maintenance (no scheduler): the writing thread pays for the
    // flush and any policy merge.
    RotateMemLocked();
    AX_RETURN_NOT_OK(DrainImmutablesLocked(lock));
    AX_ASSIGN_OR_RETURN(bool merged, ApplyMergePolicyLocked(lock));
    (void)merged;
    return Status::OK();
  }

  /// Flush the oldest immutable component: claims the flush slot, releases
  /// mu_ for the component build, reacquires it to install.
  Status FlushOldestLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    while (flush_active_ && !closing_) maint_cv_.wait(lock);
    if (closing_) return Status::OK();
    if (!maint_error_.ok()) return maint_error_;
    if (immutables_.empty()) return Status::OK();
    flush_active_ = true;
    FrozenPtr victim = immutables_.back();  // oldest
    // Deletes matter only if something older could hide a live entry.
    // Newer immutables are irrelevant; only disk components are older, and
    // the flush slot we hold is the only thing that installs new ones.
    const bool has_older = !components_.empty();
    lock.unlock();
    std::string base;
    DiskPtr comp = NewComponent(victim->seq, victim->seq, &base);
    Status built = format_.BuildFlush(victim->mem, has_older, base, comp.get());
    lock.lock();
    flush_active_ = false;
    maint_cv_.notify_all();  // backpressure waiters, drain barriers
    if (!built.ok()) return built;
    const uint64_t bytes = comp->bytes;
    components_.insert(components_.begin(), std::move(comp));
    immutables_.pop_back();
    flushes_++;
    Count(metrics_.flushes, 1);
    Count(metrics_.flush_bytes, bytes);
    return Status::OK();
  }

  /// Barrier: flush every pending immutable component. Cooperative: this
  /// thread does the flush work itself instead of waiting on a queued
  /// scheduler task, so a bounded pool can never deadlock on a barrier
  /// (e.g. Instance::Checkpoint fanning out partition flushes).
  Status DrainImmutablesLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    while (true) {
      while (flush_active_) maint_cv_.wait(lock);
      if (!maint_error_.ok()) return maint_error_;
      if (immutables_.empty()) return Status::OK();
      AX_RETURN_NOT_OK(FlushOldestLocked(lock));
    }
  }

  /// Victim-run length the merge policy wants merged (0 = nothing).
  size_t PickMergeRunLocked() const AX_REQUIRES(mu_) {
    const MergePolicy& mp = options_.merge_policy;
    switch (mp.kind) {
      case MergePolicyKind::kNoMerge:
        return 0;
      case MergePolicyKind::kConstant:
        if (components_.size() > static_cast<size_t>(mp.max_components)) {
          return components_.size();
        }
        return 0;
      case MergePolicyKind::kPrefix: {
        // Merge the longest newest-first run of small components whose
        // total stays under the cap; skip if the run is trivial.
        size_t run = 0;
        uint64_t total = 0;
        for (const auto& comp : components_) {
          if (comp->bytes > mp.max_merged_bytes) break;
          if (total + comp->bytes > mp.max_merged_bytes) break;
          total += comp->bytes;
          run++;
        }
        return run >= 2 ? run : 0;
      }
    }
    return 0;
  }

  /// Merge the newest `run` disk components: claims the merge slot,
  /// releases mu_ for the merged-component build, reacquires it to splice
  /// the component list. Returns immediately if a merge is active.
  Status MergeRunLocked(std::unique_lock<std::mutex>& lock, size_t run)
      AX_REQUIRES(mu_) {
    if (merge_active_) return Status::OK();  // another thread is merging
    if (run < 2 || run > components_.size()) {
      return Status::InvalidArgument("bad merge component count");
    }
    merge_active_ = true;
    const bool includes_oldest = run == components_.size();
    std::vector<DiskPtr> victims(
        components_.begin(), components_.begin() + static_cast<ptrdiff_t>(run));
    lock.unlock();
    std::string base;
    DiskPtr merged =
        NewComponent(victims.back()->seq_lo, victims.front()->seq_hi, &base);
    Status built =
        format_.BuildMerge(victims, includes_oldest, base, merged.get());
    lock.lock();
    merge_active_ = false;
    maint_cv_.notify_all();
    if (!built.ok()) return built;
    // Flushes only prepend, so the victim run is still contiguous (and still
    // the oldest suffix if it was one); splice the merged component into its
    // place. Readers that pinned the victims keep reading them until their
    // last reference drops, at which point the files are unlinked.
    auto first =
        std::find(components_.begin(), components_.end(), victims.front());
    if (first == components_.end()) {
      return Status::Internal("merge victims vanished from component list");
    }
    const uint64_t bytes = merged->bytes;
    for (auto& victim : victims) victim->obsolete = true;
    auto pos = components_.erase(first, first + static_cast<ptrdiff_t>(run));
    components_.insert(pos, std::move(merged));
    merges_++;
    Count(metrics_.merges, 1);
    Count(metrics_.merge_bytes, bytes);
    return Status::OK();
  }

  Result<bool> ApplyMergePolicyLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    if (merge_active_) return false;
    size_t run = PickMergeRunLocked();
    if (run < 2) return false;
    AX_RETURN_NOT_OK(MergeRunLocked(lock, run));
    return true;
  }

  void ScheduleFlushLocked() AX_REQUIRES(mu_) {
    if (options_.scheduler == nullptr || flush_queued_ || closing_) return;
    flush_queued_ = true;
    tasks_inflight_++;
    options_.scheduler->Submit([this] { BackgroundFlush(); });
  }

  void ScheduleMergeLocked() AX_REQUIRES(mu_) {
    if (options_.scheduler == nullptr || merge_queued_ || merge_active_ ||
        closing_) {
      return;
    }
    if (PickMergeRunLocked() < 2) return;
    merge_queued_ = true;
    tasks_inflight_++;
    options_.scheduler->Submit([this] { BackgroundMerge(); });
  }

  void BackgroundFlush() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!closing_ && maint_error_.ok()) {
      if (flush_active_) {  // a barrier (Flush/Checkpoint) is doing our work
        maint_cv_.wait(lock);
        continue;
      }
      if (immutables_.empty()) break;
      Status s = FlushOldestLocked(lock);
      if (!s.ok()) {
        if (maint_error_.ok()) maint_error_ = std::move(s);
        break;
      }
    }
    // Cleared under the same lock hold as the emptiness check: a rotation
    // after this point submits a fresh task.
    flush_queued_ = false;
    if (!closing_ && maint_error_.ok()) ScheduleMergeLocked();
    tasks_inflight_--;
    maint_cv_.notify_all();
  }

  void BackgroundMerge() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    merge_queued_ = false;
    if (!closing_ && maint_error_.ok() && !merge_active_) {
      auto merged = ApplyMergePolicyLocked(lock);
      if (!merged.ok() && maint_error_.ok()) maint_error_ = merged.status();
    }
    tasks_inflight_--;
    maint_cv_.notify_all();
  }

  const LsmLifecycleOptions options_;
  const Format format_;
  const LsmMetrics metrics_;
  mutable std::mutex mu_;
  mutable std::condition_variable maint_cv_;  // flush/merge slots, drain,
                                              // backpressure
  Mem mem_ AX_GUARDED_BY(mu_);
  size_t mem_bytes_ AX_GUARDED_BY(mu_) = 0;
  std::vector<FrozenPtr> immutables_ AX_GUARDED_BY(mu_);  // newest first
  std::vector<DiskPtr> components_ AX_GUARDED_BY(mu_);    // newest first
  uint64_t next_seq_ AX_GUARDED_BY(mu_) = 1;
  uint64_t flushes_ AX_GUARDED_BY(mu_) = 0;
  uint64_t merges_ AX_GUARDED_BY(mu_) = 0;
  uint64_t write_stalls_ AX_GUARDED_BY(mu_) = 0;
  bool flush_active_ AX_GUARDED_BY(mu_) = false;  // a thread owns the flush
                                                  // slot
  bool flush_queued_ AX_GUARDED_BY(mu_) = false;  // background flush task
                                                  // submitted
  bool merge_active_ AX_GUARDED_BY(mu_) = false;
  bool merge_queued_ AX_GUARDED_BY(mu_) = false;
  bool closing_ AX_GUARDED_BY(mu_) = false;
  int tasks_inflight_ AX_GUARDED_BY(mu_) = 0;  // scheduler tasks not yet
                                               // finished
  Status maint_error_ AX_GUARDED_BY(mu_);  // sticky background failure
};

}  // namespace asterix::storage
