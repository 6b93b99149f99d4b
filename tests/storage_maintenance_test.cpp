// Tests for asynchronous LSM maintenance: the shared MaintenanceScheduler
// (graceful drain, batch fan-out, error propagation), background flushes
// and merges with concurrent readers (get/scan parity, snapshot
// stability), write-stall backpressure, drain-on-close, torn-flush
// recovery through the Instance's WAL replay, and the checkpoint fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>

#include "adm/key_encoder.h"
#include "asterix/instance.h"
#include "common/io.h"
#include "common/metrics.h"
#include "lsm_tree_ops.h"
#include "storage/maintenance.h"

namespace asterix::storage {
namespace {

// ---- scheduler ------------------------------------------------------------

TEST(MaintenanceSchedulerTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  MaintenanceScheduler sched(3);
  EXPECT_EQ(sched.worker_count(), 3u);
  for (int i = 0; i < 100; i++) {
    sched.Submit([&] { ran.fetch_add(1); });
  }
  sched.Drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(MaintenanceSchedulerTest, DestructorDrainsQueuedTasks) {
  // Graceful drain: destroying the scheduler must run every queued task
  // first — trees rely on this so a queued flush never vanishes.
  std::atomic<int> ran{0};
  {
    MaintenanceScheduler sched(1);
    for (int i = 0; i < 50; i++) {
      sched.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(MaintenanceSchedulerTest, RunBatchPropagatesFirstError) {
  MaintenanceScheduler sched(2);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> jobs;
  jobs.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  jobs.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::IOError("boom");
  });
  jobs.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  Status s = sched.RunBatch(std::move(jobs));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  EXPECT_EQ(ran.load(), 3);  // an error does not cancel the other jobs
}

// ---- Both LSM trees under background maintenance --------------------------
//
// LsmBTree and LsmRTree share one LsmLifecycle, so every case runs over
// both (see lsm_tree_ops.h for how entries map onto each tree).

template <class Tree>
class MaintenanceLsmTest : public LsmTreeTest<Tree> {};
TYPED_TEST_SUITE(MaintenanceLsmTest, LsmTreeTypes, LsmTreeNames);

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->value();
}

// Blocks a one-worker scheduler until release() so flushes queue behind it.
struct BlockedScheduler {
  MaintenanceScheduler sched{1};
  std::atomic<bool> released{false};
  BlockedScheduler() {
    sched.Submit([this] {
      while (!released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~BlockedScheduler() { released.store(true); }
};

TYPED_TEST(MaintenanceLsmTest, ConcurrentReadersDuringBackgroundFlush) {
  using Ops = typename TestFixture::Ops;
  MaintenanceScheduler sched(2);
  auto tree = this->Open(this->Options(&sched));
  const int kN = 3000;
  std::atomic<int> written{0};
  std::atomic<bool> failed{false};

  // Readers chase the writer: every key at index < written must be
  // visible with its final value, whether it lives in the mutable
  // component, a pending immutable, or an already-flushed component.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      while (written.load() < kN && !failed.load()) {
        int upto = written.load();
        if (upto == 0) continue;
        int key = upto / 2;
        auto got = Ops::Find(*tree, key);
        if (!got.ok() || got.value() != "v" + std::to_string(key)) {
          failed.store(true);
        }
      }
    });
  }
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(
        Ops::Put(*tree, i, std::string("v").append(std::to_string(i))).ok());
    written.store(i + 1);
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().flushes, 0u);
  EXPECT_EQ(tree->stats().pending_immutables, 0u);
  for (int i = 0; i < kN; i++) {
    EXPECT_EQ(Ops::Find(*tree, i).value(),
              std::string("v").append(std::to_string(i)))
        << i;
  }
}

TYPED_TEST(MaintenanceLsmTest, SnapshotStableAcrossFlushAndMerge) {
  using Ops = typename TestFixture::Ops;
  MaintenanceScheduler sched(2);
  auto tree = this->Open(this->Options(&sched));
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(Ops::Put(*tree, i, "old").ok());
  }
  ASSERT_TRUE(tree->Flush().ok());

  // A B+tree iterator pins the stack it opened against: everything after
  // must be invisible to it, even once the merge retires its components.
  std::optional<LsmBTree::Iterator> pinned;
  if constexpr (std::is_same_v<TypeParam, LsmBTree>) {
    pinned = tree->NewIterator().value();
  }
  // Every scan, of either tree, reads one consistent stack: while the
  // writer adds keys and flushes and merges run, a scan sees each original
  // key exactly once and never an entry twice.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    while (!stop.load() && !failed.load()) {
      auto rows = Ops::Scan(*tree);
      if (!rows.ok()) {
        failed.store(true);
        break;
      }
      std::set<int64_t> seen;
      size_t originals = 0;
      for (const auto& [k, v] : rows.value()) {
        if (!seen.insert(k).second) failed.store(true);
        if (k >= 1 && k < 200) {
          originals++;
          if (v != "old") failed.store(true);
        }
      }
      if (originals != 199) failed.store(true);
    }
  });
  for (int i = 200; i < 400; i++) {
    ASSERT_TRUE(Ops::Put(*tree, i, "new").ok());
  }
  ASSERT_TRUE(Ops::Overwrite(*tree, 0, "old", "overwritten").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  stop.store(true);
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(tree->stats().disk_components, 1u);

  if constexpr (std::is_same_v<TypeParam, LsmBTree>) {
    size_t n = 0;
    ASSERT_TRUE(pinned->SeekToFirst().ok());
    while (pinned->Valid()) {
      EXPECT_EQ(pinned->value(), "old");  // pre-merge, pre-overwrite contents
      n++;
      ASSERT_TRUE(pinned->Next().ok());
    }
    EXPECT_EQ(n, 200u);
  }
  // Fresh reads see the post-merge state.
  EXPECT_EQ(Ops::Find(*tree, 0).value(), "overwritten");
  EXPECT_EQ(Ops::Find(*tree, 399).value(), "new");
  EXPECT_EQ(Ops::Scan(*tree).value().size(), 400u);
}

TYPED_TEST(MaintenanceLsmTest, ReadParityDuringBackgroundMerges) {
  using Ops = typename TestFixture::Ops;
  MaintenanceScheduler sched(2);
  auto o = this->Options(&sched, 1 << 13);
  o.merge_policy = {MergePolicyKind::kConstant, 3, 0};
  auto tree = this->Open(o);

  std::map<int64_t, std::string> model;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  // A reader probes a key that is overwritten and deleted throughout (it
  // must always see *some* committed value for it, or none) and scans the
  // whole tree, across background flushes and merges.
  std::thread reader([&] {
    while (!stop.load()) {
      auto got = Ops::Find(*tree, 7);
      if (!got.ok() || (got.value() && got.value()->rfind("x", 0) != 0) ||
          !Ops::Scan(*tree).ok()) {
        failed.store(true);
        return;
      }
    }
  });
  for (int i = 0; i < 4000; i++) {
    if (i % 7 == 3) {
      ASSERT_TRUE(ModelErase(*tree, &model, i % 500).ok());
    } else {
      ASSERT_TRUE(ModelPut(*tree, &model, i % 500,
                           std::string("x").append(std::to_string(i)))
                      .ok());
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(Ops::Scan(*tree).value(), ModelRows(model));

  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().flushes, 0u);
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_GT(tree->stats().merges, 0u);
  EXPECT_EQ(Ops::Scan(*tree).value(), ModelRows(model));
}

TYPED_TEST(MaintenanceLsmTest, BackpressureStallsWriterAtBound) {
  // One worker, blocked by a long sleeper: flushes queue behind it, so the
  // writer must hit the max_pending_immutables bound and stall (counted in
  // stats + metrics) instead of buffering unboundedly.
  using Ops = typename TestFixture::Ops;
  BlockedScheduler blocked;
  auto o = this->Options(&blocked.sched, 1 << 12);
  o.max_pending_immutables = 1;
  auto tree = this->Open(o);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    blocked.released.store(true);
  });
  std::string pad(128, 'p');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(Ops::Put(*tree, i, pad).ok());
  }
  releaser.join();
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().write_stalls, 0u);
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(Ops::Find(*tree, i).value(), pad) << i;
  }
}

TYPED_TEST(MaintenanceLsmTest, DeletesAloneTripTheMemoryBudget) {
  using Ops = typename TestFixture::Ops;
  std::string pad(64, 'd');
  {
    // Inline maintenance: a delete-only stream past the budget rotates and
    // flushes components like any other write.
    auto tree = this->Open(this->Options(nullptr, 1 << 12));
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(Ops::Erase(*tree, i, pad).ok());
    }
    EXPECT_GT(tree->stats().flushes, 0u);
    EXPECT_LT(tree->stats().mem_bytes, size_t{1} << 12);
  }
  // Under a blocked scheduler the same stream stalls at the bound.
  BlockedScheduler blocked;
  auto o = this->Options(&blocked.sched, 1 << 12);
  o.name = "deletes_async";
  o.max_pending_immutables = 1;
  auto tree = this->Open(o);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    blocked.released.store(true);
  });
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(Ops::Erase(*tree, i, pad).ok());
  }
  releaser.join();
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().write_stalls, 0u);
  EXPECT_TRUE(Ops::Scan(*tree).value().empty());
}

TYPED_TEST(MaintenanceLsmTest, DrainOnCloseCompletesInflightFlushes) {
  using Ops = typename TestFixture::Ops;
  MaintenanceScheduler sched(2);
  std::string pad(64, 'q');
  {
    auto tree = this->Open(this->Options(&sched, 1 << 12));
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(Ops::Put(*tree, i, pad).ok());
    }
    // Destructor: waits for in-flight background work; queued-but-unrun
    // flushes still run (scheduler holds no dangling tree pointer after).
  }
  // Every component the close left on disk is complete: reopening drops
  // none as incomplete (each component is a data file plus its commit
  // point) and every recovered row reads back intact.
  const size_t files = this->FileCount();
  const uint64_t dropped =
      CounterValue("storage.lsm.incomplete_components_dropped");
  auto tree = this->Open(this->Options(nullptr));
  EXPECT_EQ(CounterValue("storage.lsm.incomplete_components_dropped"),
            dropped);
  EXPECT_GE(tree->stats().disk_components, 1u);
  EXPECT_EQ(files, 2 * tree->stats().disk_components);
  auto rows = Ops::Scan(*tree).value();
  EXPECT_EQ(rows.size(), tree->stats().disk_entries);
  std::set<int64_t> keys;
  for (const auto& [k, v] : rows) {
    EXPECT_EQ(v, pad);
    EXPECT_TRUE(k >= 0 && k < 1000) << k;
    EXPECT_TRUE(keys.insert(k).second) << k;
  }
}

TYPED_TEST(MaintenanceLsmTest, TornFlushDroppedAtOpen) {
  using Ops = typename TestFixture::Ops;
  {
    auto tree = this->Open(this->Options());
    for (int i = 0; i < 100; i++) ASSERT_TRUE(Ops::Put(*tree, i, "a").ok());
    ASSERT_TRUE(tree->Flush().ok());
    for (int i = 100; i < 200; i++) ASSERT_TRUE(Ops::Put(*tree, i, "b").ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  // Simulate a crash that tore the newest flush: its commit point (the
  // file written last) is missing. File names order by sequence number.
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(this->dir_)) {
    files.push_back(e.path());
  }
  ASSERT_EQ(files.size(), 4u);
  std::sort(files.begin(), files.end());
  std::vector<std::filesystem::path> newest(files.begin() + 2, files.end());
  const std::string commit_ext =
      std::is_same_v<TypeParam, LsmBTree> ? ".bloom" : ".del";
  for (const auto& f : newest) {
    if (f.extension() == commit_ext) std::filesystem::remove(f);
  }
  const uint64_t dropped =
      CounterValue("storage.lsm.incomplete_components_dropped");

  // Open drops the torn component (its data file too) and keeps the rest.
  auto tree = this->Open(this->Options());
  EXPECT_EQ(tree->stats().disk_components, 1u);
  EXPECT_EQ(this->FileCount(), 2u);
  for (const auto& f : newest) EXPECT_FALSE(std::filesystem::exists(f)) << f;
  if constexpr (std::is_same_v<TypeParam, LsmBTree>) {
    EXPECT_EQ(CounterValue("storage.lsm.incomplete_components_dropped"),
              dropped + 1);
  }
  std::map<int64_t, std::string> expect;
  for (int i = 0; i < 100; i++) expect[i] = "a";
  EXPECT_EQ(Ops::Scan(*tree).value(), ModelRows(expect));
}

}  // namespace
}  // namespace asterix::storage

// ---- Instance-level: torn flush + WAL replay, checkpoint fan-out ----------

namespace asterix {
namespace {

using adm::Value;

class MaintenanceInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axmainti_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Instance> OpenInstance() {
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    opts.lsm_mem_budget_bytes = 1 << 14;  // force flushes during ingest
    auto inst = Instance::Open(opts).value();
    return inst;
  }
  Value Rec(int id) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("s", Value::String(std::string(60, 'x')))
        .Build();
  }
  std::string dir_;
};

TEST_F(MaintenanceInstanceTest, TornBackgroundFlushRecoversFromWal) {
  {
    auto inst = OpenInstance();
    ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE T AS { id: int, s: string };"
                                    "CREATE DATASET D(T) PRIMARY KEY id")
                    .ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(inst->UpsertValue("D", Rec(i)).ok());
    }
    // No Checkpoint: the WAL still covers every row. Close gracefully
    // (drains background flushes, drops unflushed memory components).
  }
  // Simulate a crash that tore the newest background flush: remove one
  // component's Bloom commit-point file, leaving a data file without it.
  std::vector<std::filesystem::path> blooms;
  for (auto& p : std::filesystem::recursive_directory_iterator(dir_)) {
    if (p.path().extension() == ".bloom") blooms.push_back(p.path());
  }
  ASSERT_FALSE(blooms.empty()) << "ingest produced no flushed components";
  std::filesystem::remove(blooms.back());

  // Reopen: Open() must drop the torn component and WAL replay must
  // restore its rows — every record is still visible.
  auto inst = OpenInstance();
  Value rec;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(inst->GetByKey("D", Value::Int(i), &rec).value()) << i;
  }
}

TEST_F(MaintenanceInstanceTest, NoMergePolicyLeavesRTreeIndexUnmerged) {
  // The instance's merge policy governs every index, R-tree ones included.
  InstanceOptions opts;
  opts.base_dir = dir_;
  opts.num_partitions = 1;
  opts.lsm_mem_budget_bytes = 1 << 14;
  opts.merge_policy.kind = storage::MergePolicyKind::kNoMerge;
  auto inst = Instance::Open(opts).value();
  ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE P AS { id: int, loc: point };"
                                  "CREATE DATASET D(P) PRIMARY KEY id;"
                                  "CREATE INDEX locIdx ON D (loc) TYPE RTREE")
                  .ok());
  auto* rtree_merges =
      metrics::Registry::Global().GetCounter("storage.lsm_rtree.merges");
  const uint64_t merges_before = rtree_merges->value();
  for (int i = 0; i < 3000; i++) {
    Value rec = adm::ObjectBuilder()
                    .Add("id", Value::Int(i))
                    .Add("loc", Value::MakePoint(i % 100, i / 100))
                    .Build();
    ASSERT_TRUE(inst->UpsertValue("D", rec).ok());
  }
  ASSERT_TRUE(inst->Checkpoint().ok());
  size_t rtree_components = 0;
  for (auto& p : std::filesystem::recursive_directory_iterator(dir_)) {
    if (p.path().extension() == ".rt") rtree_components++;
  }
  // The default constant policy would have merged past 5 components.
  EXPECT_GT(rtree_components, 5u);
  EXPECT_EQ(rtree_merges->value(), merges_before);
}

TEST_F(MaintenanceInstanceTest, CheckpointFansOutAcrossPartitions) {
  auto inst = OpenInstance();
  ASSERT_NE(inst->maintenance(), nullptr);  // async is the default
  ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE T AS { id: int, s: string };"
                                  "CREATE DATASET D(T) PRIMARY KEY id;"
                                  "CREATE DATASET E(T) PRIMARY KEY id")
                  .ok());
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(inst->UpsertValue("D", Rec(i)).ok());
    ASSERT_TRUE(inst->UpsertValue("E", Rec(i)).ok());
  }
  ASSERT_TRUE(inst->Checkpoint().ok());
  // After the fan-out checkpoint nothing is left in memory components.
  auto stats = inst->DatasetStats("D").value();
  EXPECT_EQ(stats.mem_entries, 0u);
  // A second checkpoint over empty trees is a no-op but must still work.
  ASSERT_TRUE(inst->Checkpoint().ok());
  inst.reset();

  auto reopened = OpenInstance();
  Value rec;
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(reopened->GetByKey("D", Value::Int(i), &rec).value()) << i;
    ASSERT_TRUE(reopened->GetByKey("E", Value::Int(i), &rec).value()) << i;
  }
}

TEST_F(MaintenanceInstanceTest, ConcurrentWritersWithCheckpoints) {
  // Checkpoint's RunBatch fans out on the same pool the trees use for
  // background flushes; interleaving it with writers must not deadlock
  // (the cooperative-drain design) or lose rows.
  auto inst = OpenInstance();
  ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE T AS { id: int, s: string };"
                                  "CREATE DATASET D(T) PRIMARY KEY id")
                  .ok());
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 300; i++) {
        if (!inst->UpsertValue("D", Rec(t * 1000 + i)).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (int c = 0; c < 5; c++) {
    ASSERT_TRUE(inst->Checkpoint().ok());
  }
  for (auto& w : writers) w.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(inst->Checkpoint().ok());
  Value rec;
  for (int t = 0; t < 3; t++) {
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(inst->GetByKey("D", Value::Int(t * 1000 + i), &rec).value());
    }
  }
}

}  // namespace
}  // namespace asterix
