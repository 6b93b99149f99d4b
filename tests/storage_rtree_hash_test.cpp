// Tests for the on-disk R-tree (STR bulk load, point mode) and the
// linear hashing index.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "common/rng.h"
#include "storage/linear_hash.h"
#include "storage/rtree.h"

namespace asterix::storage {
namespace {

class SpatialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axsp_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& n) { return dir_ + "/" + n; }
  std::string dir_;
};

TEST_F(SpatialTest, RTreePointQueries) {
  auto builder = RTreeBuilder::Create(Path("r.rtree"), /*point_mode=*/true).value();
  // 100x100 grid of points, payload = "x_y".
  for (int x = 0; x < 100; x++) {
    for (int y = 0; y < 100; y++) {
      adm::Rectangle r{{double(x), double(y)}, {double(x), double(y)}};
      ASSERT_TRUE(
          builder->Add(r, std::to_string(x) + "_" + std::to_string(y)).ok());
    }
  }
  auto meta = builder->Finish().value();
  EXPECT_EQ(meta.entry_count, 10000u);
  EXPECT_TRUE(meta.point_mode);

  BufferCache cache(128);
  auto tree = RTree::Open(Path("r.rtree"), &cache).value();
  // Query a 10x10 window.
  auto results = tree->SearchCollect({{20, 30}, {29, 39}}).value();
  EXPECT_EQ(results.size(), 100u);
  for (const auto& e : results) {
    EXPECT_GE(e.mbr.lo.x, 20);
    EXPECT_LE(e.mbr.lo.x, 29);
    EXPECT_GE(e.mbr.lo.y, 30);
    EXPECT_LE(e.mbr.lo.y, 39);
  }
  // Empty region.
  EXPECT_TRUE(tree->SearchCollect({{1000, 1000}, {2000, 2000}}).value().empty());
  // Single point.
  EXPECT_EQ(tree->SearchCollect({{55, 55}, {55, 55}}).value().size(), 1u);
}

TEST_F(SpatialTest, RTreeRectangleEntries) {
  auto builder = RTreeBuilder::Create(Path("r.rtree"), /*point_mode=*/false).value();
  // Overlapping boxes.
  for (int i = 0; i < 1000; i++) {
    double base = static_cast<double>(i);
    adm::Rectangle r{{base, base}, {base + 5, base + 5}};
    ASSERT_TRUE(builder->Add(r, "box" + std::to_string(i)).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(64);
  auto tree = RTree::Open(Path("r.rtree"), &cache).value();
  // Boxes intersecting [100,103]x[100,103]: bases 95..103 inclusive.
  auto results = tree->SearchCollect({{100, 100}, {103, 103}}).value();
  std::set<std::string> names;
  for (const auto& e : results) names.insert(e.payload);
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(names.count("box95"));
  EXPECT_TRUE(names.count("box103"));
  EXPECT_FALSE(names.count("box94"));
}

TEST_F(SpatialTest, RTreePointModeRejectsBoxes) {
  auto builder = RTreeBuilder::Create(Path("r.rtree"), /*point_mode=*/true).value();
  EXPECT_FALSE(builder->Add({{0, 0}, {1, 1}}, "x").ok());
}

TEST_F(SpatialTest, RTreePointModeIsSmallerOnDisk) {
  // The paper's §V-B point optimization: storing points rather than
  // degenerate boxes shrinks the index.
  Rng rng(3);
  std::vector<adm::Point> pts;
  for (int i = 0; i < 20000; i++) {
    pts.push_back({rng.NextDouble() * 1000, rng.NextDouble() * 1000});
  }
  auto b1 = RTreeBuilder::Create(Path("pt.rtree"), true).value();
  auto b2 = RTreeBuilder::Create(Path("box.rtree"), false).value();
  for (size_t i = 0; i < pts.size(); i++) {
    adm::Rectangle r{pts[i], pts[i]};
    std::string payload = std::to_string(i);
    ASSERT_TRUE(b1->Add(r, payload).ok());
    ASSERT_TRUE(b2->Add(r, payload).ok());
  }
  auto m1 = b1->Finish().value();
  auto m2 = b2->Finish().value();
  EXPECT_LT(m1.page_count, m2.page_count);
  // Both return identical result sets.
  BufferCache cache(512);
  auto t1 = RTree::Open(Path("pt.rtree"), &cache).value();
  auto t2 = RTree::Open(Path("box.rtree"), &cache).value();
  adm::Rectangle q{{100, 100}, {300, 300}};
  auto r1 = t1->SearchCollect(q).value();
  auto r2 = t2->SearchCollect(q).value();
  std::set<std::string> s1, s2;
  for (const auto& e : r1) s1.insert(e.payload);
  for (const auto& e : r2) s2.insert(e.payload);
  EXPECT_EQ(s1, s2);
  EXPECT_GT(s1.size(), 0u);
}

TEST_F(SpatialTest, RTreeEmpty) {
  auto builder = RTreeBuilder::Create(Path("r.rtree"), false).value();
  (void)builder->Finish().value();
  BufferCache cache(8);
  auto tree = RTree::Open(Path("r.rtree"), &cache).value();
  EXPECT_TRUE(tree->SearchCollect({{0, 0}, {10, 10}}).value().empty());
}

TEST_F(SpatialTest, RTreeEarlyTermination) {
  auto builder = RTreeBuilder::Create(Path("r.rtree"), true).value();
  for (int i = 0; i < 1000; i++) {
    adm::Rectangle r{{double(i % 10), double(i / 10)},
                     {double(i % 10), double(i / 10)}};
    ASSERT_TRUE(builder->Add(r, std::to_string(i)).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(64);
  auto tree = RTree::Open(Path("r.rtree"), &cache).value();
  int seen = 0;
  ASSERT_TRUE(tree->Search({{0, 0}, {9, 99}},
                           [&](const adm::Rectangle&, const std::string&) {
                             seen++;
                             return seen < 5;  // stop after 5
                           })
                  .ok());
  EXPECT_EQ(seen, 5);
}

// Brute-force cross-check across data sizes and query selectivities.
class RTreeSweep : public SpatialTest,
                   public ::testing::WithParamInterface<int> {};

TEST_P(RTreeSweep, MatchesBruteForce) {
  int n = GetParam();
  Rng rng(n);
  std::vector<adm::Rectangle> boxes;
  auto builder = RTreeBuilder::Create(Path("r.rtree"), false).value();
  for (int i = 0; i < n; i++) {
    double x = rng.NextDouble() * 100, y = rng.NextDouble() * 100;
    double w = rng.NextDouble() * 5, h = rng.NextDouble() * 5;
    boxes.push_back({{x, y}, {x + w, y + h}});
    ASSERT_TRUE(builder->Add(boxes.back(), std::to_string(i)).ok());
  }
  (void)builder->Finish().value();
  BufferCache cache(128);
  auto tree = RTree::Open(Path("r.rtree"), &cache).value();
  for (int q = 0; q < 10; q++) {
    double x = rng.NextDouble() * 100, y = rng.NextDouble() * 100;
    adm::Rectangle query{{x, y}, {x + 10, y + 10}};
    std::set<std::string> expect;
    for (int i = 0; i < n; i++) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) {
        expect.insert(std::to_string(i));
      }
    }
    std::set<std::string> got;
    // Materialize before iterating: ranging over `SearchCollect().value()`
    // directly dangles — value()&& returns a reference into the temporary
    // Result, which dies at the end of the range-init (pre-C++23 lifetime
    // rules). Caught by TSan as a heap-use-after-free.
    std::vector<SpatialEntry> entries = tree->SearchCollect(query).value();
    for (const auto& e : entries) {
      got.insert(e.payload);
    }
    EXPECT_EQ(got, expect) << "query " << q << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeSweep,
                         ::testing::Values(0, 1, 17, 256, 3000));

TEST_F(SpatialTest, LinearHashPutGet) {
  BufferCache cache(64);
  auto lh = LinearHash::Create(Path("h.lhash"), &cache).value();
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(
        lh->Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  EXPECT_EQ(lh->entry_count(), 5000u);
  EXPECT_GT(lh->bucket_count(), 4u);  // splits happened
  std::string v;
  for (int i = 0; i < 5000; i += 7) {
    ASSERT_TRUE(lh->Get("key" + std::to_string(i), &v).value()) << i;
    EXPECT_EQ(v, "val" + std::to_string(i));
  }
  EXPECT_FALSE(lh->Get("missing", &v).value());
}

TEST_F(SpatialTest, LinearHashOverwrite) {
  BufferCache cache(64);
  auto lh = LinearHash::Create(Path("h.lhash"), &cache).value();
  ASSERT_TRUE(lh->Put("k", "v1").ok());
  ASSERT_TRUE(lh->Put("k", "v2").ok());
  EXPECT_EQ(lh->entry_count(), 1u);
  std::string v;
  EXPECT_TRUE(lh->Get("k", &v).value());
  EXPECT_EQ(v, "v2");
}

TEST_F(SpatialTest, LinearHashDelete) {
  BufferCache cache(64);
  auto lh = LinearHash::Create(Path("h.lhash"), &cache).value();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(lh->Put(std::string("k").append(std::to_string(i)), "v").ok());
  }
  EXPECT_TRUE(lh->Delete("k50").value());
  EXPECT_FALSE(lh->Delete("k50").value());
  std::string v;
  EXPECT_FALSE(lh->Get("k50", &v).value());
  EXPECT_TRUE(lh->Get("k51", &v).value());
  EXPECT_EQ(lh->entry_count(), 99u);
}

TEST_F(SpatialTest, LinearHashSurvivesSkewAndLargeValues) {
  BufferCache cache(128);
  auto lh = LinearHash::Create(Path("h.lhash"), &cache).value();
  Rng rng(11);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; i++) {
    std::string k = "user" + std::to_string(rng.Skewed(500));
    std::string val = rng.NextString(1 + rng.Uniform(200));
    model[k] = val;
    ASSERT_TRUE(lh->Put(k, val).ok());
  }
  EXPECT_EQ(lh->entry_count(), model.size());
  for (const auto& [k, val] : model) {
    std::string v;
    ASSERT_TRUE(lh->Get(k, &v).value()) << k;
    EXPECT_EQ(v, val);
  }
}

}  // namespace
}  // namespace asterix::storage
