// Tests for the buffer cache, bloom filter, and the on-disk B+tree
// (bulk load, point lookup, range scans, overflow values).
#include <gtest/gtest.h>

#include <filesystem>

#include "adm/key_encoder.h"
#include "common/rng.h"
#include "storage/bloom.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"

namespace asterix::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axbtree_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return dir_ + "/" + name; }
  std::string dir_;
};

std::string IntKey(int64_t v) {
  return adm::EncodeKey(adm::Value::Int(v)).value();
}

TEST_F(StorageTest, BufferCachePinAndStats) {
  // Build a small raw file with 3 pages of known content.
  {
    auto f = File::Create(Path("raw")).value();
    std::string page(kPageSize, 'a');
    ASSERT_TRUE(f->WriteAt(0, kPageSize, page.data()).ok());
    page.assign(kPageSize, 'b');
    ASSERT_TRUE(f->WriteAt(kPageSize, kPageSize, page.data()).ok());
    page.assign(kPageSize, 'c');
    ASSERT_TRUE(f->WriteAt(2 * kPageSize, kPageSize, page.data()).ok());
  }
  BufferCache cache(2);
  auto fid = cache.RegisterFile(Path("raw")).value();
  {
    auto h = cache.Pin(fid, 0).value();
    EXPECT_EQ(h.data()[0], 'a');
  }
  {
    auto h = cache.Pin(fid, 0).value();  // hit
    EXPECT_EQ(h.data()[10], 'a');
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Fault in pages 1 and 2 — with 2 frames this evicts page 0.
  (void)cache.Pin(fid, 1).value();
  (void)cache.Pin(fid, 2).value();
  EXPECT_GE(cache.stats().evictions, 1u);
  {
    auto h = cache.Pin(fid, 0).value();  // miss again after eviction
    EXPECT_EQ(h.data()[0], 'a');
  }
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_F(StorageTest, BufferCacheAllPinnedIsError) {
  {
    auto f = File::Create(Path("raw")).value();
    std::string page(3 * kPageSize, 'x');
    ASSERT_TRUE(f->WriteAt(0, page.size(), page.data()).ok());
  }
  BufferCache cache(2);
  auto fid = cache.RegisterFile(Path("raw")).value();
  auto h1 = cache.Pin(fid, 0).value();
  auto h2 = cache.Pin(fid, 1).value();
  auto r = cache.Pin(fid, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(StorageTest, BufferCachePageOutOfRange) {
  {
    auto f = File::Create(Path("raw")).value();
    std::string page(kPageSize, 'x');
    ASSERT_TRUE(f->WriteAt(0, kPageSize, page.data()).ok());
  }
  BufferCache cache(4);
  auto fid = cache.RegisterFile(Path("raw")).value();
  EXPECT_FALSE(cache.Pin(fid, 5).ok());
}

TEST_F(StorageTest, BufferCacheWriteThroughNewPage) {
  BufferCache cache(4);
  auto fid = cache.RegisterFile(Path("mutable"), /*writable=*/true).value();
  {
    auto [no, h] = cache.NewPage(fid).value();
    EXPECT_EQ(no, 0u);
    h.data()[0] = 'Z';
    h.MarkDirty();
  }
  ASSERT_TRUE(cache.FlushFile(fid).ok());
  ASSERT_TRUE(cache.UnregisterFile(fid).ok());
  auto f = File::Open(Path("mutable")).value();
  char c;
  ASSERT_TRUE(f->ReadAt(0, 1, &c).ok());
  EXPECT_EQ(c, 'Z');
}

TEST(Bloom, BasicMembership) {
  BloomFilter f(1000);
  for (int i = 0; i < 1000; i++) f.Add("key" + std::to_string(i));
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(f.MayContain("key" + std::to_string(i)));
  }
  int false_positives = 0;
  for (int i = 1000; i < 11000; i++) {
    if (f.MayContain("key" + std::to_string(i))) false_positives++;
  }
  // ~1% expected at 10 bits/key; allow generous headroom.
  EXPECT_LT(false_positives, 500);
}

TEST(Bloom, SerializeRoundTrip) {
  BloomFilter f(100);
  f.Add("alpha");
  f.Add("beta");
  auto g = BloomFilter::Deserialize(f.Serialize()).value();
  EXPECT_TRUE(g.MayContain("alpha"));
  EXPECT_TRUE(g.MayContain("beta"));
  EXPECT_EQ(g.bit_count(), f.bit_count());
}

TEST_F(StorageTest, BTreeBuildAndGet) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  for (int i = 0; i < 10000; i++) {
    ASSERT_TRUE(
        builder->Add(IntKey(i * 2), std::string("v").append(std::to_string(i)))
            .ok());
  }
  auto meta = builder->Finish().value();
  EXPECT_EQ(meta.entry_count, 10000u);
  EXPECT_GT(meta.height, 1u);

  BufferCache cache(64);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(0), &v).value());
  EXPECT_EQ(v, "v0");
  EXPECT_TRUE(tree->Get(IntKey(9998 * 2), &v).value());
  EXPECT_EQ(v, "v9998");
  EXPECT_FALSE(tree->Get(IntKey(3), &v).value());   // odd keys absent
  EXPECT_FALSE(tree->Get(IntKey(-1), &v).value());  // below min
  EXPECT_FALSE(tree->Get(IntKey(1 << 30), &v).value());  // above max
}

TEST_F(StorageTest, BTreeRangeScan) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(builder->Add(IntKey(i), std::to_string(i)).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(64);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();

  auto it = tree->NewIterator();
  ASSERT_TRUE(it.Seek(IntKey(1234)).ok());
  int expect = 1234;
  int n = 0;
  while (it.Valid() && n < 100) {
    EXPECT_EQ(it.value(), std::to_string(expect));
    expect++;
    n++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(n, 100);

  // Full scan from the start covers everything in order.
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    if (count > 0) {
      EXPECT_GT(it.key(), prev);
    }
    prev = it.key();
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 5000);
}

TEST_F(StorageTest, BTreeSeekPastEnd) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  ASSERT_TRUE(builder->Add(IntKey(1), "a").ok());
  (void)builder->Finish().value();
  BufferCache cache(8);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.Seek(IntKey(100)).ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(StorageTest, BTreeEmptyTree) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  (void)builder->Finish().value();
  BufferCache cache(8);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(1), &v).value());
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(StorageTest, BTreeOverflowValues) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  Rng rng(7);
  std::vector<std::string> values;
  for (int i = 0; i < 50; i++) {
    // Mix of inline and multi-page overflow values.
    size_t len = (i % 3 == 0) ? 3 * kPageSize + 17 : 10;
    values.push_back(rng.NextString(len));
    ASSERT_TRUE(builder->Add(IntKey(i), values.back()).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(32);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();
  for (int i = 0; i < 50; i++) {
    std::string v;
    ASSERT_TRUE(tree->Get(IntKey(i), &v).value()) << i;
    EXPECT_EQ(v, values[i]) << i;
  }
  // Scan sees overflow values too.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int i = 0;
  while (it.Valid()) {
    EXPECT_EQ(it.value(), values[i]);
    i++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(i, 50);
}

// The iterator hands out views: inline entries point into the pinned leaf,
// overflow values into a buffer the iterator owns. A view stays valid
// while other readers churn the cache, until the iterator moves.
TEST_F(StorageTest, BTreeIteratorViewsOverflowEntries) {
  constexpr int kN = 400;
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  Rng rng(11);
  std::vector<std::string> values;
  for (int i = 0; i < kN; i++) {
    // Runs of three overflow values (the buffer is reused) between inline
    // ones that fill several leaves; overflow lengths straddle the page
    // payload size.
    size_t len = i % 10 < 3 ? kPageSize - 4 + static_cast<size_t>(i) * 13 : 200;
    values.push_back(rng.NextString(len));
    ASSERT_TRUE(builder->Add(IntKey(i), values.back()).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(6);  // a few frames: the churning reader must evict
  auto tree = BTree::Open(Path("t.btree"), &cache).value();

  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(it.Valid()) << i;
    EXPECT_EQ(it.key(), IntKey(i)) << i;
    EXPECT_EQ(it.value(), values[i]) << i;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());

  auto inline_it = tree->NewIterator();
  ASSERT_TRUE(inline_it.Seek(IntKey(7)).ok());
  auto overflow_it = tree->NewIterator();
  ASSERT_TRUE(tree->Find(IntKey(201), &overflow_it).value());
  const std::string_view inline_key = inline_it.key();
  const std::string_view inline_value = inline_it.value();
  const std::string_view overflow_value = overflow_it.value();
  for (int pass = 0; pass < 2; pass++) {
    auto churn = tree->NewIterator();
    ASSERT_TRUE(churn.SeekToFirst().ok());
    while (churn.Valid()) ASSERT_TRUE(churn.Next().ok());
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(inline_key, IntKey(7));
  EXPECT_EQ(inline_value, values[7]);
  EXPECT_EQ(overflow_value, values[201]);

  // Find lands on inline and overflow entries alike, and misses cleanly.
  ASSERT_TRUE(tree->Find(IntKey(395), &overflow_it).value());
  EXPECT_EQ(overflow_it.value(), values[395]);
  ASSERT_TRUE(tree->Find(IntKey(392), &overflow_it).value());
  EXPECT_EQ(overflow_it.value(), values[392]);
  EXPECT_FALSE(tree->Find(IntKey(kN), &overflow_it).value());
  EXPECT_FALSE(overflow_it.Valid());
  std::string v;
  ASSERT_TRUE(tree->Get(IntKey(392), &v).value());
  EXPECT_EQ(v, values[392]);
}

TEST_F(StorageTest, BTreeRejectsOutOfOrderKeys) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  ASSERT_TRUE(builder->Add(IntKey(5), "x").ok());
  EXPECT_FALSE(builder->Add(IntKey(4), "y").ok());
}

TEST_F(StorageTest, BTreeStringKeys) {
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  std::vector<std::string> words = {"apple", "banana", "cherry", "date", "fig"};
  for (const auto& w : words) {
    ASSERT_TRUE(
        builder->Add(adm::EncodeKey(adm::Value::String(w)).value(), w).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(8);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();
  std::string v;
  EXPECT_TRUE(tree->Get(adm::EncodeKey(adm::Value::String("cherry")).value(), &v)
                  .value());
  EXPECT_EQ(v, "cherry");
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.Seek(adm::EncodeKey(adm::Value::String("bb")).value()).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), "cherry");
}

// Property sweep: many sizes, keys survive round trips and scans count right.
class BTreeSizeSweep : public StorageTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(BTreeSizeSweep, BuildScanCount) {
  int n = GetParam();
  auto builder = BTreeBuilder::Create(Path("t.btree")).value();
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(builder->Add(IntKey(i), std::to_string(i * 7)).ok());
  }
  auto meta = builder->Finish().value();
  EXPECT_EQ(meta.entry_count, static_cast<uint64_t>(n));
  BufferCache cache(32);
  auto tree = BTree::Open(Path("t.btree"), &cache).value();
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, n);
  if (n > 0) {
    std::string v;
    EXPECT_TRUE(tree->Get(IntKey(n / 2), &v).value());
    EXPECT_EQ(v, std::to_string((n / 2) * 7));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeSizeSweep,
                         ::testing::Values(0, 1, 2, 10, 100, 1000, 20000));

}  // namespace
}  // namespace asterix::storage
