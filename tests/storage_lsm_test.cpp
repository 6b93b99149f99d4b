// Tests for the LSM B+tree: memory/disk components, flush, antimatter
// deletes, merged iteration, merge policies, and crash-free reopen; the
// merge-policy cases run over the LSM R-tree too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "common/rng.h"
#include "lsm_tree_ops.h"
#include "storage/lsm_btree.h"
#include "storage/maintenance.h"

namespace asterix::storage {
namespace {

std::string IntKey(int64_t v) {
  return adm::EncodeKey(adm::Value::Int(v)).value();
}

class LsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axlsm_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  LsmOptions Options(size_t mem_budget = 1 << 14) {
    LsmOptions o;
    o.dir = dir_;
    o.name = "ds";
    o.cache = cache_.get();
    o.mem_budget_bytes = mem_budget;
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(LsmTest, PutGetInMemory) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(1), "one").ok());
  ASSERT_TRUE(tree->Put(IntKey(2), "two").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "one");
  EXPECT_FALSE(tree->Get(IntKey(3), &v).value());
  EXPECT_EQ(tree->stats().disk_components, 0u);
}

TEST_F(LsmTest, OverwriteInMemory) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(1), "a").ok());
  ASSERT_TRUE(tree->Put(IntKey(1), "b").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "b");
}

TEST_F(LsmTest, FlushCreatesDiskComponent) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        tree->Put(IntKey(i), std::string("v").append(std::to_string(i))).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.mem_entries, 0u);
  EXPECT_EQ(s.disk_entries, 100u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(42), &v).value());
  EXPECT_EQ(v, "v42");
}

TEST_F(LsmTest, AutoFlushOnBudget) {
  auto tree = LsmBTree::Open(Options(/*mem_budget=*/2048)).value();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), std::string(32, 'x')).ok());
  }
  EXPECT_GT(tree->stats().flushes, 0u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(0), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(499), &v).value());
}

TEST_F(LsmTest, NewestComponentWins) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(7), "old").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(7), "new").ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->stats().disk_components, 2u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(7), &v).value());
  EXPECT_EQ(v, "new");
}

TEST_F(LsmTest, DeleteViaAntimatter) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(5), "x").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
  // Antimatter persists across a flush and still hides the old version.
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
}

TEST_F(LsmTest, DeleteThenReinsert) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(5), "first").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(5), "second").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(5), &v).value());
  EXPECT_EQ(v, "second");
}

TEST_F(LsmTest, MergedScanAcrossComponents) {
  auto tree = LsmBTree::Open(Options()).value();
  // Three overlapping generations plus live memory data.
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g1").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 50; i < 150; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g2").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 100; i < 200; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g3").ok());

  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    auto parts = adm::DecodeKey(it.key()).value();
    int64_t k = parts[0].AsInt();
    if (k < 50) {
      EXPECT_EQ(it.value(), "g1");
    } else if (k < 100) {
      EXPECT_EQ(it.value(), "g2");
    } else {
      EXPECT_EQ(it.value(), "g3");
    }
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 200);
}

TEST_F(LsmTest, ScanSkipsDeleted) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 50; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 50; i += 2) ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    auto parts = adm::DecodeKey(it.key()).value();
    EXPECT_EQ(parts[0].AsInt() % 2, 1);
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 25);
}

TEST_F(LsmTest, SnapshotIteratorStableAcrossFlush) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 20; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  // Mutate after snapshot.
  for (int i = 20; i < 40; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  ASSERT_TRUE(tree->Flush().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 20);  // snapshot view
}

TEST_F(LsmTest, ConstantMergePolicyBoundsComponents) {
  auto opts = Options(1 << 10);
  opts.merge_policy.kind = MergePolicyKind::kConstant;
  opts.merge_policy.max_components = 3;
  auto tree = LsmBTree::Open(opts).value();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i % 700), std::string(16, 'y')).ok());
  }
  auto s = tree->stats();
  EXPECT_LE(s.disk_components, 4u);
  EXPECT_GT(s.merges, 0u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(123), &v).value());
}

TEST_F(LsmTest, NoMergePolicyAccumulatesComponents) {
  auto opts = Options(1 << 10);
  opts.merge_policy.kind = MergePolicyKind::kNoMerge;
  auto tree = LsmBTree::Open(opts).value();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), std::string(16, 'y')).ok());
  }
  EXPECT_GT(tree->stats().disk_components, 3u);
  EXPECT_EQ(tree->stats().merges, 0u);
}

TEST_F(LsmTest, FullMergeDropsAntimatterAndDuplicates) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "a").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "b").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 50; i++) ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  // 50 live keys remain; antimatter and shadowed versions are gone.
  EXPECT_EQ(s.disk_entries, 50u);
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(10), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(75), &v).value());
  EXPECT_EQ(v, "b");
}

TEST_F(LsmTest, ReopenRecoversDiskComponents) {
  {
    auto tree = LsmBTree::Open(Options()).value();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          tree->Put(IntKey(i), std::string("p").append(std::to_string(i))).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    for (int i = 100; i < 200; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), "p" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  auto tree = LsmBTree::Open(Options()).value();
  EXPECT_EQ(tree->stats().disk_components, 2u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(150), &v).value());
  EXPECT_EQ(v, "p150");
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 200);
}

TEST_F(LsmTest, SeekWithinMergedView) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "even").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 1; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "odd").ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.Seek(IntKey(37)).ok());
  ASSERT_TRUE(it.Valid());
  auto parts = adm::DecodeKey(it.key()).value();
  EXPECT_EQ(parts[0].AsInt(), 37);
  EXPECT_EQ(it.value(), "odd");
  ASSERT_TRUE(it.Next().ok());
  parts = adm::DecodeKey(it.key()).value();
  EXPECT_EQ(parts[0].AsInt(), 38);
  EXPECT_EQ(it.value(), "even");
}

// ---- Iterator parity with a reference map ---------------------------------

// A record-shaped value (columnar components need ADM objects). Small ones
// repeat an 8-byte block, so compression takes them; about one in 25 holds
// an incompressible string longer than a page, so row components read it
// through an overflow chain.
std::string RecordValue(Rng* rng, int64_t k) {
  std::string s;
  if (rng->Uniform(25) == 0) {
    s = rng->NextString(2 * kPageSize + rng->Uniform(100));
  } else {
    const std::string block = rng->NextString(8);
    for (uint64_t n = 1 + rng->Uniform(16); n > 0; n--) s += block;
  }
  adm::FieldVec fields;
  fields.emplace_back("id", adm::Value::Int(k));
  fields.emplace_back("s", adm::Value::String(std::move(s)));
  return adm::Serialize(adm::Value::Object(std::move(fields)));
}

using Model = std::map<std::string, std::string>;
using Rows = std::vector<std::pair<std::string, std::string>>;

Rows ScanFrom(LsmBTree::Iterator* it, size_t limit) {
  Rows rows;
  while (it->Valid() && rows.size() < limit) {
    rows.emplace_back(it->key(), it->value());
    EXPECT_TRUE(it->Next().ok());
  }
  return rows;
}

Rows ModelFrom(const Model& model, const std::string& from, size_t limit) {
  Rows rows;
  for (auto it = model.lower_bound(from);
       it != model.end() && rows.size() < limit; ++it) {
    rows.emplace_back(*it);
  }
  return rows;
}

// A randomized stack holding every kind of merge source at once: two row
// disk components, a columnar one, pending immutable memory components and
// the mutable one, with overwrites and deletes across all of them. The
// merged iterator must read exactly what a std::map of the same writes
// holds, from the start and from any Seek, with compression on and off.
// Views read before a flush and a full merge replace the components under
// live iterators must still return the pinned bytes.
TEST_F(LsmTest, IteratorMatchesReferenceOverEveryComponentKind) {
  constexpr int64_t kKeys = 500;
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "uncompressed");
    Rng rng(compress ? 17 : 16);
    Model model;
    auto churn = [&](LsmBTree* tree, int ops) {
      for (int i = 0; i < ops; i++) {
        int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
        if (rng.Uniform(5) == 0) {
          ASSERT_TRUE(tree->Delete(IntKey(k)).ok());
          model.erase(IntKey(k));
        } else {
          std::string v = RecordValue(&rng, k);
          ASSERT_TRUE(tree->Put(IntKey(k), v).ok());
          model[IntKey(k)] = std::move(v);
        }
      }
    };
    LsmOptions opts = Options(/*mem_budget=*/1u << 30);
    opts.name = compress ? "zc" : "zu";
    opts.compress_values = compress;
    {  // two row components, then a columnar one on top
      auto tree = LsmBTree::Open(opts).value();
      churn(tree.get(), 400);
      ASSERT_TRUE(tree->Flush().ok());
      churn(tree.get(), 300);
      ASSERT_TRUE(tree->Flush().ok());
    }
    {
      LsmOptions col = opts;
      col.storage_format = StorageFormat::kColumnar;
      auto tree = LsmBTree::Open(col).value();
      churn(tree.get(), 300);
      ASSERT_TRUE(tree->Flush().ok());
      ASSERT_EQ(tree->stats().columnar_components, 1u);
    }
    // Immutable memory components stay pending behind a blocked scheduler.
    MaintenanceScheduler sched(1);
    std::atomic<bool> released{false};
    sched.Submit([&] {
      while (!released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    LsmOptions mem = opts;
    mem.scheduler = &sched;
    mem.mem_budget_bytes = 4096;
    mem.max_pending_immutables = 1000;
    auto tree = LsmBTree::Open(mem).value();
    // Unblocks the worker on every exit, a failed assertion included,
    // before the tree waits for its queued flushes.
    struct Release {
      std::atomic<bool>* flag;
      ~Release() { flag->store(true); }
    } release{&released};
    churn(tree.get(), 150);
    ASSERT_GE(tree->stats().pending_immutables, 2u);
    ASSERT_GT(tree->stats().mem_entries, 0u);
    ASSERT_EQ(tree->stats().disk_components, 3u);

    auto it = tree->NewIterator().value();
    ASSERT_TRUE(it.SeekToFirst().ok());
    EXPECT_EQ(ScanFrom(&it, SIZE_MAX), Rows(model.begin(), model.end()));
    for (int probe = 0; probe < 60; probe++) {
      std::string from = IntKey(static_cast<int64_t>(rng.Uniform(kKeys + 20)) - 10);
      ASSERT_TRUE(it.Seek(from).ok());
      EXPECT_EQ(ScanFrom(&it, 12), ModelFrom(model, from, 12)) << probe;
    }

    // One live iterator per probe key holds its view while the tree
    // overwrites the key, flushes every memory component and merges every
    // disk component into one.
    const Model before = model;
    std::vector<std::string> probes;
    for (int64_t k = 0; k < kKeys && probes.size() < 24; k += 1 + rng.Uniform(40)) {
      if (model.count(IntKey(k))) probes.push_back(IntKey(k));
    }
    std::vector<LsmBTree::Iterator> held;
    std::vector<std::string_view> views;
    for (const auto& key : probes) {
      held.push_back(tree->NewIterator().value());
      ASSERT_TRUE(held.back().Seek(key).ok());
      ASSERT_TRUE(held.back().Valid());
      ASSERT_EQ(held.back().key(), key);
      views.push_back(held.back().value());
    }
    for (const auto& key : probes) {
      ASSERT_TRUE(tree->Put(key, "overwritten").ok());
      model[key] = "overwritten";
    }
    released.store(true);
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->ForceFullMerge().ok());
    ASSERT_EQ(tree->stats().disk_components, 1u);
    for (size_t i = 0; i < probes.size(); i++) {
      EXPECT_EQ(views[i], before.at(probes[i])) << i;
    }
    // The first held iterator reads its pinned stack to the end.
    ASSERT_FALSE(held.empty());
    EXPECT_EQ(ScanFrom(&held.front(), SIZE_MAX),
              ModelFrom(before, probes.front(), SIZE_MAX));
    held.clear();
    auto fresh = tree->NewIterator().value();
    ASSERT_TRUE(fresh.SeekToFirst().ok());
    EXPECT_EQ(ScanFrom(&fresh, SIZE_MAX), Rows(model.begin(), model.end()));
  }
}

// ---- Lifecycle behaviour shared by both LSM trees --------------------------

template <class Tree>
class LsmLifecycleTest : public LsmTreeTest<Tree> {};
TYPED_TEST_SUITE(LsmLifecycleTest, LsmTreeTypes, LsmTreeNames);

// Property sweep over merge policies: contents identical regardless, and
// each tree merges exactly when its policy says so.
TYPED_TEST(LsmLifecycleTest, SameContentsUnderAnyPolicy) {
  using Ops = typename TestFixture::Ops;
  const std::pair<MergePolicyKind, const char*> policies[] = {
      {MergePolicyKind::kNoMerge, "none"},
      {MergePolicyKind::kConstant, "constant"},
      {MergePolicyKind::kPrefix, "prefix"}};
  for (const auto& [kind, name] : policies) {
    SCOPED_TRACE(name);
    auto opts = this->Options(nullptr, 1 << 11);
    opts.name = name;
    opts.merge_policy = {kind, 3, 1 << 20};
    auto tree = this->Open(opts);
    // Deterministic workload with overwrites and deletes.
    std::map<int64_t, std::string> model;
    for (int round = 0; round < 3; round++) {
      for (int i = 0; i < 400; i++) {
        std::string value = "r";
        value.append(std::to_string(round)).append("_").append(
            std::to_string(i));
        ASSERT_TRUE(ModelPut(*tree, &model, i, value).ok());
      }
      for (int i = round * 10; i < round * 10 + 50; i++) {
        ASSERT_TRUE(ModelErase(*tree, &model, i).ok());
      }
    }
    // Expected final state: keys deleted in round 2 (20..69) absent unless
    // rewritten afterwards — round 2 deletes happen after its puts, so keys
    // 20..69 are deleted; everything else holds "r2_<i>".
    for (int i = 0; i < 400; i++) {
      bool deleted = i >= 20 && i < 70;
      auto found = Ops::Find(*tree, i).value();
      EXPECT_EQ(found.has_value(), !deleted) << "key " << i;
      if (found) {
        EXPECT_EQ(*found, "r2_" + std::to_string(i));
      }
    }
    auto rows = Ops::Scan(*tree).value();
    EXPECT_EQ(rows.size(), 350u);
    EXPECT_EQ(rows, ModelRows(model));
    if (kind == MergePolicyKind::kNoMerge) {
      EXPECT_EQ(tree->stats().merges, 0u);
    } else {
      EXPECT_GT(tree->stats().merges, 0u);
    }
  }
}

// A prefix merge of newer components that does not reach the oldest one
// must keep the victims' deletes: they still hide entries below.
TYPED_TEST(LsmLifecycleTest, DeleteInOldComponentHiddenAfterPrefixMerge) {
  using Ops = typename TestFixture::Ops;
  uint64_t oldest_bytes = 0;
  {
    auto tree = this->Open(this->Options(nullptr, 1u << 30));
    for (int i = 0; i < 5000; i++) ASSERT_TRUE(Ops::Put(*tree, i, "x").ok());
    ASSERT_TRUE(tree->Flush().ok());
    oldest_bytes = tree->stats().disk_bytes;
  }
  // Every write now flushes one small component and applies the policy,
  // whose cap leaves the large oldest component out of every run.
  auto opts = this->Options(nullptr, 1);
  opts.merge_policy = {MergePolicyKind::kPrefix, 0, oldest_bytes - 1};
  auto tree = this->Open(opts);
  ASSERT_TRUE(Ops::Erase(*tree, 5, "x").ok());
  EXPECT_EQ(tree->stats().disk_components, 2u);
  ASSERT_TRUE(Ops::Put(*tree, 6000, "y").ok());
  EXPECT_EQ(tree->stats().merges, 1u);  // the two newest, not the oldest
  EXPECT_EQ(tree->stats().disk_components, 2u);
  EXPECT_FALSE(Ops::Find(*tree, 5).value().has_value());
  EXPECT_EQ(Ops::Find(*tree, 6000).value(), "y");
  EXPECT_EQ(Ops::Scan(*tree).value().size(), 5000u);

  // A full merge then annihilates the delete with the entry it hides.
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->stats().disk_components, 1u);
  EXPECT_FALSE(Ops::Find(*tree, 5).value().has_value());
  EXPECT_EQ(Ops::Scan(*tree).value().size(), 5000u);
}

}  // namespace
}  // namespace asterix::storage
