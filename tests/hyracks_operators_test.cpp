// Tests for the Hyracks runtime: streaming operators, external sort,
// hash group-by (all phases), grace hash join, spill files.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "common/rng.h"
#include "hyracks/groupby.h"
#include "hyracks/join.h"
#include "hyracks/operators.h"
#include "hyracks/sort.h"
#include "hyracks/spill.h"
#include "resource/governor.h"

namespace asterix::hyracks {
namespace {

using adm::Value;

TupleEval Field(size_t i) {
  return [i](const Tuple& t) -> Result<Value> { return t.at(i); };
}

TupleEval GreaterThan(size_t i, int64_t bound) {
  return [i, bound](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(i).is_numeric() && t.at(i).AsNumber() > bound);
  };
}

Tuple T(std::initializer_list<Value> vals) {
  return Tuple(std::vector<Value>(vals));
}

class HyracksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axhy_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    tmp_ = std::make_unique<TempFileManager>(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  std::unique_ptr<TempFileManager> tmp_;
};

TEST_F(HyracksTest, RunFileRoundTrip) {
  auto writer = RunWriter::Create(tmp_->NextPath("run")).value();
  Rng rng(4);
  std::vector<Tuple> expect;
  for (int i = 0; i < 1000; i++) {
    Tuple t = T({Value::Int(i), Value::String(rng.NextString(1 + i % 500))});
    expect.push_back(t);
    ASSERT_TRUE(writer->Write(t).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = RunReader::Open(writer->path()).value();
  auto got = CollectAll(reader.get()).value();
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].at(0).AsInt(), expect[i].at(0).AsInt()) << i;
    EXPECT_EQ(got[i].at(1).AsString(), expect[i].at(1).AsString()) << i;
  }
}

TEST_F(HyracksTest, CancellationIsObservedMidDrain) {
  // Regression for operator pump loops that never consulted the query
  // context: once wired, a cancelled query's pull must fail.
  std::vector<Tuple> in;
  for (int i = 0; i < 4000; i++) in.push_back(T({Value::Int(i)}));
  resource::QueryContext ctx;
  ctx.Cancel();
  SelectOp batched(std::make_unique<VectorSource>(in), GreaterThan(0, -1));
  batched.SetQueryContext(&ctx);
  ASSERT_TRUE(batched.Open().ok());
  Batch b;
  EXPECT_TRUE(batched.NextBatch(&b).status().IsCancelled());
}

TEST_F(HyracksTest, SelectFiltersTuples) {
  std::vector<Tuple> in;
  for (int i = 0; i < 10; i++) in.push_back(T({Value::Int(i)}));
  SelectOp op(std::make_unique<VectorSource>(in), GreaterThan(0, 6));
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(0).AsInt(), 7);
}

TEST_F(HyracksTest, AssignAppendsFields) {
  std::vector<Tuple> in = {T({Value::Int(2)}), T({Value::Int(5)})};
  TupleEval doubler = [](const Tuple& t) -> Result<Value> {
    return Value::Int(t.at(0).AsInt() * 2);
  };
  AssignOp op(std::make_unique<VectorSource>(in), {doubler});
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].arity(), 2u);
  EXPECT_EQ(out[0].at(1).AsInt(), 4);
  EXPECT_EQ(out[1].at(1).AsInt(), 10);
}

TEST_F(HyracksTest, ProjectReordersFields) {
  std::vector<Tuple> in = {T({Value::Int(1), Value::String("a"), Value::Int(3)})};
  ProjectOp op(std::make_unique<VectorSource>(in), {2, 0});
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arity(), 2u);
  EXPECT_EQ(out[0].at(0).AsInt(), 3);
  EXPECT_EQ(out[0].at(1).AsInt(), 1);
}

TEST_F(HyracksTest, LimitAndOffset) {
  std::vector<Tuple> in;
  for (int i = 0; i < 10; i++) in.push_back(T({Value::Int(i)}));
  LimitOp op(std::make_unique<VectorSource>(in), 3, 4);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(0).AsInt(), 4);
  EXPECT_EQ(out[2].at(0).AsInt(), 6);
}

TEST_F(HyracksTest, UnnestExpandsCollections) {
  std::vector<Tuple> in = {
      T({Value::Int(1), Value::Array({Value::String("a"), Value::String("b")})}),
      T({Value::Int(2), Value::Array({})}),
      T({Value::Int(3), Value::Multiset({Value::String("c")})}),
  };
  UnnestOp op(std::make_unique<VectorSource>(in), Field(1), /*outer=*/false);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(2).AsString(), "a");
  EXPECT_EQ(out[1].at(2).AsString(), "b");
  EXPECT_EQ(out[2].at(0).AsInt(), 3);

  UnnestOp outer(std::make_unique<VectorSource>(in), Field(1), /*outer=*/true);
  auto out2 = CollectAll(&outer).value();
  ASSERT_EQ(out2.size(), 4u);  // id=2 emits one MISSING row
}

TEST_F(HyracksTest, UnionAllConcatenates) {
  std::vector<StreamPtr> children;
  children.push_back(std::make_unique<VectorSource>(
      std::vector<Tuple>{T({Value::Int(1)}), T({Value::Int(2)})}));
  children.push_back(
      std::make_unique<VectorSource>(std::vector<Tuple>{T({Value::Int(3)})}));
  UnionAllOp op(std::move(children));
  auto out = CollectAll(&op).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(HyracksTest, SortInMemory) {
  std::vector<Tuple> in;
  for (int i = 0; i < 100; i++) in.push_back(T({Value::Int((i * 37) % 100)}));
  ExternalSortOp op(std::make_unique<VectorSource>(in), {{Field(0), true}},
                    1 << 20, tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; i++) EXPECT_EQ(out[i].at(0).AsInt(), i);
  EXPECT_EQ(op.stats().runs_spilled, 0u);
}

TEST_F(HyracksTest, SortSpillsAndMerges) {
  std::vector<Tuple> in;
  Rng rng(9);
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    in.push_back(T({Value::Int(static_cast<int64_t>(rng.Next() % 1000000)),
                    Value::String(rng.NextString(20))}));
  }
  ExternalSortOp op(std::make_unique<VectorSource>(in), {{Field(0), true}},
                    64 * 1024, tmp_.get(), /*fanin=*/4);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LE(out[i - 1].at(0).AsInt(), out[i].at(0).AsInt());
  }
  EXPECT_GT(op.stats().runs_spilled, 4u);   // bounded memory forced runs
  EXPECT_GT(op.stats().merge_passes, 1u);   // fan-in 4 forced multi-pass
  // Spill files are cleaned up.
  size_t leftover = 0;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    leftover++;
  }
  EXPECT_EQ(leftover, 0u);
}

TEST_F(HyracksTest, SortDescendingAndMultiKey) {
  std::vector<Tuple> in = {
      T({Value::Int(1), Value::String("b")}),
      T({Value::Int(1), Value::String("a")}),
      T({Value::Int(2), Value::String("z")}),
  };
  ExternalSortOp op(
      std::make_unique<VectorSource>(in),
      {{Field(0), false}, {Field(1), true}}, 1 << 20, tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(0).AsInt(), 2);
  EXPECT_EQ(out[1].at(1).AsString(), "a");
  EXPECT_EQ(out[2].at(1).AsString(), "b");
}

TEST_F(HyracksTest, StreamDistinctOnSorted) {
  std::vector<Tuple> in = {T({Value::Int(1)}), T({Value::Int(1)}),
                           T({Value::Int(2)}), T({Value::Int(3)}),
                           T({Value::Int(3)})};
  StreamDistinctOp op(std::make_unique<VectorSource>(in));
  auto out = CollectAll(&op).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(HyracksTest, GroupByCompleteAllAggregates) {
  // (key, value): key 0 gets 1,3 ; key 1 gets 2, null
  std::vector<Tuple> in = {
      T({Value::Int(0), Value::Int(1)}),
      T({Value::Int(1), Value::Int(2)}),
      T({Value::Int(0), Value::Int(3)}),
      T({Value::Int(1), Value::Null()}),
  };
  std::vector<AggSpec> aggs = {
      {AggKind::kCount, nullptr},    // COUNT(*)
      {AggKind::kCount, Field(1)},   // COUNT(v) skips null
      {AggKind::kSum, Field(1)},
      {AggKind::kMin, Field(1)},
      {AggKind::kMax, Field(1)},
      {AggKind::kAvg, Field(1)},
  };
  HashGroupByOp op(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                   AggPhase::kComplete, 1 << 20, tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 2u);
  std::sort(out.begin(), out.end(),
            [](const Tuple& a, const Tuple& b) { return CompareTuples(a, b) < 0; });
  // key 0: count*=2 count=2 sum=4 min=1 max=3 avg=2.0
  EXPECT_EQ(out[0].at(1).AsInt(), 2);
  EXPECT_EQ(out[0].at(2).AsInt(), 2);
  EXPECT_EQ(out[0].at(3).AsInt(), 4);
  EXPECT_EQ(out[0].at(4).AsInt(), 1);
  EXPECT_EQ(out[0].at(5).AsInt(), 3);
  EXPECT_DOUBLE_EQ(out[0].at(6).AsNumber(), 2.0);
  // key 1: count*=2 count=1 sum=2 avg=2.0
  EXPECT_EQ(out[1].at(1).AsInt(), 2);
  EXPECT_EQ(out[1].at(2).AsInt(), 1);
  EXPECT_EQ(out[1].at(3).AsInt(), 2);
}

TEST_F(HyracksTest, GroupByPartialThenFinalEqualsComplete) {
  // Two-phase aggregation must agree with one-phase.
  Rng rng(12);
  std::vector<Tuple> in;
  for (int i = 0; i < 2000; i++) {
    in.push_back(T({Value::Int(static_cast<int64_t>(rng.Uniform(20))),
                    Value::Int(static_cast<int64_t>(rng.Uniform(100)))}));
  }
  std::vector<AggSpec> aggs = {{AggKind::kCount, nullptr},
                               {AggKind::kSum, Field(1)},
                               {AggKind::kAvg, Field(1)}};
  HashGroupByOp complete(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                         AggPhase::kComplete, 1 << 20, tmp_.get());
  auto expect = CollectAll(&complete).value();

  // Split input across two "partitions", partial-agg each, then final.
  std::vector<Tuple> half1(in.begin(), in.begin() + 1000);
  std::vector<Tuple> half2(in.begin() + 1000, in.end());
  auto p1 = std::make_unique<HashGroupByOp>(
      std::make_unique<VectorSource>(half1), std::vector<TupleEval>{Field(0)},
      aggs, AggPhase::kPartial, 1 << 20, tmp_.get());
  auto p2 = std::make_unique<HashGroupByOp>(
      std::make_unique<VectorSource>(half2), std::vector<TupleEval>{Field(0)},
      aggs, AggPhase::kPartial, 1 << 20, tmp_.get());
  std::vector<StreamPtr> parts;
  parts.push_back(std::move(p1));
  parts.push_back(std::move(p2));
  HashGroupByOp final_op(std::make_unique<UnionAllOp>(std::move(parts)),
                         {Field(0)}, aggs, AggPhase::kFinal, 1 << 20,
                         tmp_.get());
  auto got = CollectAll(&final_op).value();

  auto lt = [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  };
  std::sort(expect.begin(), expect.end(), lt);
  std::sort(got.begin(), got.end(), lt);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); i++) {
    EXPECT_EQ(CompareTuples(expect[i], got[i]), 0) << i;
  }
}

TEST_F(HyracksTest, GroupBySpillsUnderPressure) {
  Rng rng(7);
  std::vector<Tuple> in;
  const int n = 30000;
  for (int i = 0; i < n; i++) {
    // Many distinct groups, each key a long-ish string.
    in.push_back(T({Value::String("group_" + std::to_string(rng.Uniform(8000))),
                    Value::Int(1)}));
  }
  std::vector<AggSpec> aggs = {{AggKind::kSum, Field(1)}};
  HashGroupByOp op(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                   AggPhase::kComplete, 32 * 1024, tmp_.get());
  auto out = CollectAll(&op).value();
  EXPECT_GT(op.spill_partitions_used(), 0u);
  // Totals conserve the input count.
  int64_t total = 0;
  std::set<std::string> keys;
  for (const auto& t : out) {
    total += t.at(1).AsInt();
    EXPECT_TRUE(keys.insert(t.at(0).AsString()).second) << "duplicate group";
  }
  EXPECT_EQ(total, n);
}

TEST_F(HyracksTest, CollectKeepsEveryItemOfALargeGroup) {
  // One group of 20k ints must collect in linear time and lose nothing,
  // both in memory and at a tiny budget, where the later keys spill as
  // partial rows holding collected arrays and merge back from the spill
  // files.
  const int n = 20000;
  std::vector<Tuple> in;
  std::vector<int64_t> want;
  for (int i = 0; i < n; i++) {
    in.push_back(T({Value::Int(0), Value::Int(i)}));
    want.push_back(i);
  }
  for (int k = 1; k <= 3; k++) in.push_back(T({Value::Int(k), Value::Int(-k)}));
  auto items_of = [](const Tuple& t, size_t field) {
    std::vector<int64_t> got;
    for (const auto& v : t.at(field).items()) got.push_back(v.AsInt());
    std::sort(got.begin(), got.end());
    return got;
  };
  auto lt = [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  };
  const std::vector<AggSpec> aggs = {{AggKind::kCollect, Field(1)},
                                     {AggKind::kCount, nullptr}};
  for (size_t budget : {size_t{1} << 24, size_t{1}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    HashGroupByOp op(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                     AggPhase::kComplete, budget, tmp_.get());
    auto out = CollectAll(&op).value();
    ASSERT_EQ(out.size(), 4u);
    std::sort(out.begin(), out.end(), lt);
    EXPECT_EQ(items_of(out[0], 1), want);
    EXPECT_EQ(out[0].at(2).AsInt(), n);
    for (int64_t k = 1; k <= 3; k++) {
      EXPECT_EQ(items_of(out[static_cast<size_t>(k)], 1),
                std::vector<int64_t>{-k});
    }
    if (budget == 1) {
      EXPECT_GT(op.spill_partitions_used(), 0u);
    }
  }
  // Two phases: the partial array merges into the final state.
  const std::vector<AggSpec> collect = {{AggKind::kCollect, Field(1)}};
  auto partial = std::make_unique<HashGroupByOp>(
      std::make_unique<VectorSource>(in), std::vector<TupleEval>{Field(0)},
      collect, AggPhase::kPartial, 1 << 24, tmp_.get());
  HashGroupByOp final_op(std::move(partial), {Field(0)}, collect,
                         AggPhase::kFinal, /*memory_budget_bytes=*/1,
                         tmp_.get());
  auto out = CollectAll(&final_op).value();
  ASSERT_EQ(out.size(), 4u);
  std::sort(out.begin(), out.end(), lt);
  EXPECT_EQ(items_of(out[0], 1), want);
}

TEST_F(HyracksTest, HashJoinInner) {
  std::vector<Tuple> left = {T({Value::Int(1), Value::String("l1")}),
                             T({Value::Int(2), Value::String("l2")}),
                             T({Value::Int(3), Value::String("l3")})};
  std::vector<Tuple> right = {T({Value::Int(2), Value::String("r2")}),
                              T({Value::Int(3), Value::String("r3a")}),
                              T({Value::Int(3), Value::String("r3b")}),
                              T({Value::Int(4), Value::String("r4")})};
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kInner, 1 << 20, tmp_.get());
  auto out = CollectAll(&op).value();
  EXPECT_EQ(out.size(), 3u);  // 2->r2, 3->r3a, 3->r3b
  for (const auto& t : out) {
    EXPECT_EQ(t.arity(), 4u);
    EXPECT_EQ(t.at(0).AsInt(), t.at(2).AsInt());
  }
}

TEST_F(HyracksTest, HashJoinLeftOuterPadsNulls) {
  std::vector<Tuple> left = {T({Value::Int(1)}), T({Value::Int(2)}),
                             T({Value::Null()})};
  std::vector<Tuple> right = {T({Value::Int(2), Value::String("hit")})};
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kLeftOuter, 1 << 20, tmp_.get(), nullptr,
                /*right_arity_hint=*/2);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  int padded = 0, matched = 0;
  for (const auto& t : out) {
    ASSERT_EQ(t.arity(), 3u);
    if (t.at(1).is_null()) {
      padded++;
    } else {
      matched++;
      EXPECT_EQ(t.at(2).AsString(), "hit");
    }
  }
  EXPECT_EQ(padded, 2);  // key 1 (no match) and null key
  EXPECT_EQ(matched, 1);
}

TEST_F(HyracksTest, HashJoinLeftSemiDeduplicates) {
  std::vector<Tuple> left = {T({Value::Int(1)}), T({Value::Int(2)})};
  std::vector<Tuple> right = {T({Value::Int(2)}), T({Value::Int(2)}),
                              T({Value::Int(2)})};
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kLeftSemi, 1 << 20, tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);  // left row 2 once, despite 3 matches
  EXPECT_EQ(out[0].at(0).AsInt(), 2);
  EXPECT_EQ(out[0].arity(), 1u);  // semi keeps only left fields
}

TEST_F(HyracksTest, HashJoinResidualPredicate) {
  std::vector<Tuple> left = {T({Value::Int(1), Value::Int(10)}),
                             T({Value::Int(1), Value::Int(20)})};
  std::vector<Tuple> right = {T({Value::Int(1), Value::Int(15)})};
  // Residual: left.v < right.v  (fields: l0,l1,r0,r1)
  TupleEval residual = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(1).AsNumber() < t.at(3).AsNumber());
  };
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kInner, 1 << 20, tmp_.get(), residual);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(1).AsInt(), 10);
}

TEST_F(HyracksTest, GraceJoinSpillsAndMatchesInMemoryResult) {
  Rng rng(21);
  std::vector<Tuple> left, right;
  const int n = 8000;
  for (int i = 0; i < n; i++) {
    left.push_back(T({Value::Int(static_cast<int64_t>(rng.Uniform(2000))),
                      Value::String(rng.NextString(30))}));
  }
  for (int i = 0; i < 2000; i++) {
    right.push_back(T({Value::Int(i), Value::String(rng.NextString(30))}));
  }
  // Reference: generous memory.
  HashJoinOp big(std::make_unique<VectorSource>(left),
                 std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                 JoinType::kInner, 64 << 20, tmp_.get());
  auto expect = CollectAll(&big).value();
  EXPECT_EQ(big.stats().partitions_spilled, 0u);
  // Constrained: forces grace partitioning.
  HashJoinOp small(std::make_unique<VectorSource>(left),
                   std::make_unique<VectorSource>(right), {Field(0)},
                   {Field(0)}, JoinType::kInner, 16 * 1024, tmp_.get());
  auto got = CollectAll(&small).value();
  EXPECT_GT(small.stats().partitions_spilled, 0u);
  auto lt = [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  };
  std::sort(expect.begin(), expect.end(), lt);
  std::sort(got.begin(), got.end(), lt);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); i += 97) {
    EXPECT_EQ(CompareTuples(expect[i], got[i]), 0) << i;
  }
}

// ---- streaming probe -------------------------------------------------------

size_t FilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    n++;
  }
  return n;
}

std::vector<Tuple> SortedTuples(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end(), [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  });
  return v;
}

TEST_F(HyracksTest, StreamingJoinSplitsLongMatchChainsAcrossBatches) {
  // One build key with 3 frames' worth of matches, probed twice: the
  // results must arrive in batches of at most kFrameTuples, exactly once.
  const size_t chain = 3 * kFrameTuples;
  auto make_inputs = [&](std::vector<Tuple>* left, std::vector<Tuple>* right) {
    *left = {T({Value::Int(7), Value::String("a")}),
             T({Value::Int(8), Value::String("none")}),
             T({Value::Int(7), Value::String("b")})};
    right->clear();
    for (size_t i = 0; i < chain; i++) {
      right->push_back(T({Value::Int(7), Value::Int(static_cast<int64_t>(i))}));
    }
    right->push_back(T({Value::Int(9), Value::Int(-1)}));
  };
  std::vector<Tuple> left, right;
  make_inputs(&left, &right);
  {
    HashJoinOp op(std::make_unique<VectorSource>(left),
                  std::make_unique<VectorSource>(right), {Field(0)},
                  {Field(0)}, JoinType::kInner, 1 << 20, tmp_.get());
    ASSERT_TRUE(op.Open().ok());
    Batch batch;
    size_t total = 0, batches = 0;
    std::set<std::pair<std::string, int64_t>> seen;
    while (op.NextBatch(&batch).value()) {
      EXPECT_LE(batch.size(), kFrameTuples);
      batches++;
      for (size_t i = 0; i < batch.size(); i++) {
        total++;
        seen.emplace(batch[i].at(1).AsString(), batch[i].at(3).AsInt());
      }
    }
    ASSERT_TRUE(op.Close().ok());
    EXPECT_EQ(total, 2 * chain);
    EXPECT_EQ(seen.size(), 2 * chain) << "a pair was emitted twice";
    EXPECT_GE(batches, 6u);
  }
  make_inputs(&left, &right);
  {
    HashJoinOp op(std::make_unique<VectorSource>(left),
                  std::make_unique<VectorSource>(right), {Field(0)},
                  {Field(0)}, JoinType::kInner, 1 << 20, tmp_.get());
    auto out = CollectAll(&op).value();
    EXPECT_EQ(out.size(), 2 * chain);
    for (const auto& t : out) EXPECT_EQ(t.arity(), 4u);
  }
}

TEST_F(HyracksTest, StreamingLeftOuterAndSemiJoinWithResidual) {
  // Residual: left.v < right.v over (l0, l1, r0, r1).
  TupleEval residual = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(1).AsNumber() < t.at(3).AsNumber());
  };
  auto left = [] {
    return std::vector<Tuple>{
        T({Value::Int(1), Value::Int(10)}),  // matches r(1,15) only
        T({Value::Int(1), Value::Int(99)}),  // key matches, residual fails
        T({Value::Int(2), Value::Int(0)}),   // matches both 2-rows
        T({Value::Int(3), Value::Int(0)}),   // no key match
        T({Value::Null(), Value::Int(0)})};  // unknown key
  };
  auto right = [] {
    return std::vector<Tuple>{
        T({Value::Int(1), Value::Int(15)}), T({Value::Int(1), Value::Int(5)}),
        T({Value::Int(2), Value::Int(1)}), T({Value::Int(2), Value::Int(2)})};
  };
  HashJoinOp outer(std::make_unique<VectorSource>(left()),
                   std::make_unique<VectorSource>(right()), {Field(0)},
                   {Field(0)}, JoinType::kLeftOuter, 1 << 20, tmp_.get(),
                   residual, /*right_arity_hint=*/2);
  auto out = SortedTuples(CollectAll(&outer).value());
  // (1,10,1,15), (2,0,2,1), (2,0,2,2) + padded (1,99), (3,0), (null,0).
  ASSERT_EQ(out.size(), 6u);
  size_t padded = 0;
  for (const auto& t : out) {
    ASSERT_EQ(t.arity(), 4u);
    if (t.at(2).is_null()) {
      padded++;
      EXPECT_TRUE(t.at(3).is_null());
    } else {
      EXPECT_LT(t.at(1).AsInt(), t.at(3).AsInt());
    }
  }
  EXPECT_EQ(padded, 3u);

  HashJoinOp semi(std::make_unique<VectorSource>(left()),
                  std::make_unique<VectorSource>(right()), {Field(0)},
                  {Field(0)}, JoinType::kLeftSemi, 1 << 20, tmp_.get(),
                  residual);
  auto kept = SortedTuples(CollectAll(&semi).value());
  // (1,10) and (2,0), each once although (2,0) passes with two rows.
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(CompareTuples(kept[0], T({Value::Int(1), Value::Int(10)})), 0);
  EXPECT_EQ(CompareTuples(kept[1], T({Value::Int(2), Value::Int(0)})), 0);
}

TEST_F(HyracksTest, GraceJoinAtTinyBudgetMatchesInMemory) {
  Rng rng(5);
  std::vector<Tuple> left, right;
  for (int i = 0; i < 3000; i++) {
    // Every 50th probe key is unknown: a left-outer join pads it.
    Value k = i % 50 == 0 ? Value::Null()
                          : Value::Int(static_cast<int64_t>(rng.Uniform(900)));
    left.push_back(T({k, Value::Int(i)}));
  }
  for (int i = 0; i < 1200; i++) {
    // Keys 0..599 twice each, as doubles half of the time: 1.0 joins 1.
    Value k = i % 2 == 0 ? Value::Int(i / 2)
                         : Value::Double(static_cast<double>(i / 2));
    right.push_back(T({k, Value::String(rng.NextString(20))}));
  }
  TupleEval residual = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(1).AsInt() % 3 != 0);
  };
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kLeftSemi}) {
    for (bool with_residual : {false, true}) {
      SCOPED_TRACE(static_cast<int>(type) * 2 + with_residual);
      TupleEval res = with_residual ? residual : nullptr;
      HashJoinOp big(std::make_unique<VectorSource>(left),
                     std::make_unique<VectorSource>(right), {Field(0)},
                     {Field(0)}, type, 64 << 20, tmp_.get(), res, 2);
      auto expect = SortedTuples(CollectAll(&big).value());
      EXPECT_EQ(big.stats().partitions_spilled, 0u);
      HashJoinOp small(std::make_unique<VectorSource>(left),
                       std::make_unique<VectorSource>(right), {Field(0)},
                       {Field(0)}, type, 8 << 10, tmp_.get(), res, 2);
      auto got = SortedTuples(CollectAll(&small).value());
      EXPECT_GT(small.stats().partitions_spilled, 0u);
      EXPECT_GT(small.stats().bytes_spilled, 0u);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < expect.size(); i++) {
        ASSERT_EQ(CompareTuples(expect[i], got[i]), 0) << i;
      }
      EXPECT_EQ(FilesIn(dir_), 0u) << "consumed partitions left behind";
    }
  }
}

TEST_F(HyracksTest, CancelMidProbeReleasesGrantAndSpillFiles) {
  std::vector<Tuple> left, right;
  Rng rng(8);
  for (int i = 0; i < 8000; i++) {
    left.push_back(T({Value::Int(static_cast<int64_t>(rng.Uniform(2000))),
                      Value::String(rng.NextString(30))}));
  }
  for (int i = 0; i < 2000; i++) {
    right.push_back(T({Value::Int(i), Value::String(rng.NextString(30))}));
  }
  for (size_t grant_bytes : {size_t{16} << 10, size_t{8} << 20}) {
    SCOPED_TRACE(grant_bytes);
    resource::GovernorOptions gopts;
    gopts.pool_bytes = 64 << 20;
    gopts.defaults.floor_bytes = 4 << 10;
    resource::MemoryGovernor gov(gopts);
    resource::QueryContext ctx;
    HashJoinOp op(std::make_unique<VectorSource>(left),
                  std::make_unique<VectorSource>(right), {Field(0)},
                  {Field(0)}, JoinType::kInner, 1 << 30, tmp_.get());
    op.AttachResources(&ctx, gov.Acquire(resource::OperatorKind::kJoin,
                                         grant_bytes, &ctx)
                                 .value());
    EXPECT_EQ(gov.used_bytes(), grant_bytes);
    ASSERT_TRUE(op.Open().ok());
    // 16 KiB forces the grace path (partition files on disk); 8 MiB keeps
    // the table in memory and streams the probe.
    EXPECT_EQ(op.stats().partitions_spilled > 0, grant_bytes < (1 << 20));
    Batch batch;
    ASSERT_TRUE(op.NextBatch(&batch).value());
    ctx.Cancel();
    auto more = op.NextBatch(&batch);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), StatusCode::kCancelled);
    (void)op.Close();
    EXPECT_EQ(gov.used_bytes(), 0u);
    EXPECT_EQ(FilesIn(dir_), 0u);
  }
}

}  // namespace
}  // namespace asterix::hyracks
