// Batch-execution tests: every operator, driven through NextBatch (the
// only pull contract), must produce the result that plain std:: code
// computes over the same input — including under spilling, through
// exchanges (all routing kinds), at input sizes around the batch
// capacity, and when a mid-stream error poisons the pipeline. No batch
// may exceed kFrameTuples. Also pins the hyracks.batch.* metric semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "hyracks/groupby.h"
#include "hyracks/job.h"
#include "hyracks/join.h"
#include "hyracks/merge.h"
#include "hyracks/operators.h"
#include "hyracks/sort.h"

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

/// n tuples of (i % 37, i): repeated keys for joins/group-bys, a unique
/// ascending second field for order checks.
std::vector<Tuple> MakeInput(int n = 600) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    out.push_back(T({Value::Int(i % 37), Value::Int(i)}));
  }
  return out;
}

/// Input sizes every parity case runs at: empty, one tuple, one short of,
/// exactly and one past a batch, and two full batches plus a partial one.
constexpr int kSizes[] = {0, 1, 255, 256, 257, 600};

int64_t K(const Tuple& t) { return t.at(0).AsInt(); }
int64_t V(const Tuple& t) { return t.at(1).AsInt(); }

/// Order-insensitive fingerprint (hash operators emit in table order).
std::vector<std::string> Sorted(const std::vector<Tuple>& ts) {
  std::vector<std::string> keys;
  keys.reserve(ts.size());
  for (const auto& t : ts) keys.push_back(t.ToString());
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> InOrder(const std::vector<Tuple>& ts) {
  std::vector<std::string> keys;
  keys.reserve(ts.size());
  for (const auto& t : ts) keys.push_back(t.ToString());
  return keys;
}

/// Drain like CollectAll, additionally checking the batch contract: every
/// batch reported as produced is non-empty and at most kFrameTuples.
Result<std::vector<Tuple>> DrainChecked(TupleStream* s) {
  AX_RETURN_NOT_OK(s->Open());
  std::vector<Tuple> out;
  Batch b;
  while (true) {
    AX_ASSIGN_OR_RETURN(bool more, s->NextBatch(&b));
    if (!more) {
      EXPECT_TRUE(b.empty());
      break;
    }
    EXPECT_FALSE(b.empty());
    EXPECT_LE(b.size(), kFrameTuples);
    for (size_t i = 0; i < b.size(); i++) out.push_back(std::move(b[i]));
  }
  AX_RETURN_NOT_OK(s->Close());
  return out;
}

/// Emits `good_batches` batches of `per_batch` ints, then fails with
/// Internal on the next pull.
class FailingSource : public TupleStream {
 public:
  FailingSource(int good_batches, int per_batch)
      : good_batches_(good_batches), per_batch_(per_batch) {}
  Status Open() override { return Status::OK(); }
  Result<bool> NextBatch(Batch* out) override {
    out->Clear();
    if (calls_++ >= good_batches_) {
      return Status::Internal("injected batch failure");
    }
    for (int i = 0; i < per_batch_; i++) {
      out->Add()->fields.push_back(Value::Int(i));
    }
    return true;
  }
  Status Close() override { return Status::OK(); }

 private:
  int good_batches_, per_batch_;
  int calls_ = 0;
};

struct ParityCase {
  const char* name;
  StreamPtr (*build)(std::vector<Tuple> input, TempFileManager* tmp);
  /// The expected output, computed with plain std:: code.
  std::vector<Tuple> (*expect)(const std::vector<Tuple>& input);
  bool ordered;  // output order is part of the operator's contract
};

std::vector<Tuple> BuildSide(int keys) {
  std::vector<Tuple> out;
  for (int k = 0; k < keys; k++) {
    out.push_back(T({Value::Int(k), Value::Int(k * 1000)}));
  }
  return out;
}

std::vector<Tuple> Filter(const std::vector<Tuple>& in, int64_t bound) {
  std::vector<Tuple> out;
  for (const auto& t : in) {
    if (V(t) > bound) out.push_back(t);
  }
  return out;
}

std::vector<Tuple> Project(const std::vector<Tuple>& in,
                           const std::vector<size_t>& keep) {
  std::vector<Tuple> out;
  for (const auto& t : in) {
    Tuple p;
    for (size_t k : keep) p.fields.push_back(t.at(k));
    out.push_back(std::move(p));
  }
  return out;
}

/// (k asc, v desc), the sort cases' key order.
std::vector<Tuple> SortedByKeyThenValueDesc(std::vector<Tuple> in) {
  std::sort(in.begin(), in.end(), [](const Tuple& a, const Tuple& b) {
    return K(a) != K(b) ? K(a) < K(b) : V(a) > V(b);
  });
  return in;
}

/// (k, count, sum of v) per key.
std::vector<Tuple> CountAndSumByKey(const std::vector<Tuple>& in) {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (const auto& t : in) {
    auto& g = groups[K(t)];
    g.first++;
    g.second += V(t);
  }
  std::vector<Tuple> out;
  for (const auto& [k, g] : groups) {
    out.push_back(T({Value::Int(k), Value::Int(g.first), Value::Int(g.second)}));
  }
  return out;
}

/// Equi-join on k against BuildSide(keys).
std::vector<Tuple> JoinWithBuildSide(const std::vector<Tuple>& in, int keys,
                                     JoinType type) {
  std::vector<Tuple> out;
  for (const auto& t : in) {
    const bool match = K(t) < keys;
    if (type == JoinType::kLeftSemi) {
      if (match) out.push_back(t);
    } else if (match) {
      out.push_back(T({t.at(0), t.at(1), Value::Int(K(t)),
                       Value::Int(K(t) * 1000)}));
    } else if (type == JoinType::kLeftOuter) {
      out.push_back(T({t.at(0), t.at(1), Value::Null(), Value::Null()}));
    }
  }
  return out;
}

std::vector<Tuple> Slice(const std::vector<Tuple>& in, size_t offset,
                         size_t limit) {
  std::vector<Tuple> out;
  for (size_t i = offset; i < in.size() && i < offset + limit; i++) {
    out.push_back(in[i]);
  }
  return out;
}

/// Items per input for the unnest cases: v % 3 (so 0 for a third of the
/// inputs), except that v == 1 carries 300 items — more than one batch.
int64_t UnnestCount(int64_t v) { return v == 1 ? 300 : v % 3; }

TupleEval UnnestCollection() {
  return [](const Tuple& t) -> Result<Value> {
    std::vector<Value> items;
    for (int64_t j = 0; j < UnnestCount(V(t)); j++) items.push_back(Value::Int(j));
    return Value::Array(std::move(items));
  };
}

std::vector<Tuple> ExpectUnnest(const std::vector<Tuple>& in, bool outer) {
  std::vector<Tuple> out;
  for (const auto& t : in) {
    const int64_t n = UnnestCount(V(t));
    for (int64_t j = 0; j < n; j++) {
      out.push_back(T({t.at(0), t.at(1), Value::Int(j)}));
    }
    if (n == 0 && outer) out.push_back(T({t.at(0), t.at(1), Value::Missing()}));
  }
  return out;
}

/// Distinct over the sorted column v / run (runs of `run` equal values).
StreamPtr DistinctRuns(std::vector<Tuple> in, int64_t run) {
  TupleEval bucket = [run](const Tuple& t) -> Result<Value> {
    return Value::Int(V(t) / run);
  };
  StreamPtr s = std::make_unique<AssignOp>(
      std::make_unique<VectorSource>(std::move(in)),
      std::vector<TupleEval>{bucket});
  s = std::make_unique<ProjectOp>(std::move(s), std::vector<size_t>{2});
  return std::make_unique<StreamDistinctOp>(std::move(s));
}

std::vector<Tuple> ExpectDistinctRuns(const std::vector<Tuple>& in,
                                      int64_t run) {
  std::vector<Tuple> out;
  for (const auto& t : in) {
    const int64_t b = V(t) / run;
    if (out.empty() || out.back().at(0).AsInt() != b) {
      out.push_back(T({Value::Int(b)}));
    }
  }
  return out;
}

const ParityCase kCases[] = {
    {"select",
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<SelectOp>(
           std::make_unique<VectorSource>(std::move(in)), GreaterThan(1, 99));
     },
     [](const std::vector<Tuple>& in) { return Filter(in, 99); }, true},
    {"select_none",  // fully rejected batches must not end the stream early
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<SelectOp>(
           std::make_unique<VectorSource>(std::move(in)),
           GreaterThan(1, 550));
     },
     [](const std::vector<Tuple>& in) { return Filter(in, 550); }, true},
    {"project",  // reordering keep list -> scratch-cycling path
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<ProjectOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<size_t>{1, 0});
     },
     [](const std::vector<Tuple>& in) { return Project(in, {1, 0}); }, true},
    {"project_monotone",  // strictly increasing keep list -> in-place shift
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<ProjectOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<size_t>{1});
     },
     [](const std::vector<Tuple>& in) { return Project(in, {1}); }, true},
    {"project_dup",  // repeated index -> scratch path must copy, not move
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<ProjectOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<size_t>{1, 1, 0});
     },
     [](const std::vector<Tuple>& in) { return Project(in, {1, 1, 0}); },
     true},
    {"select_vectorized",  // mask path must agree with the interpreted path
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       BatchPredicate mask = [](const Batch& b, uint8_t* keep) -> Status {
         for (size_t i = 0; i < b.size(); i++) {
           const Value& v = b[i].at(1);
           keep[i] = v.is_numeric() && v.AsNumber() > 99;
         }
         return Status::OK();
       };
       return std::make_unique<SelectOp>(
           std::make_unique<VectorSource>(std::move(in)), GreaterThan(1, 99),
           std::move(mask));
     },
     [](const std::vector<Tuple>& in) { return Filter(in, 99); }, true},
    {"assign",
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       TupleEval doubler = [](const Tuple& t) -> Result<Value> {
         return Value::Int(t.at(1).AsInt() * 2);
       };
       return std::make_unique<AssignOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<TupleEval>{doubler});
     },
     [](const std::vector<Tuple>& in) {
       std::vector<Tuple> out;
       for (const auto& t : in) {
         out.push_back(T({t.at(0), t.at(1), Value::Int(V(t) * 2)}));
       }
       return out;
     },
     true},
    {"sort_memory",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<ExternalSortOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<SortKey>{{Field(0), true}, {Field(1), false}},
           1 << 24, tmp);
     },
     [](const std::vector<Tuple>& in) { return SortedByKeyThenValueDesc(in); },
     true},
    {"sort_spill",  // many runs, merged through batch cursors
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<ExternalSortOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<SortKey>{{Field(0), true}, {Field(1), false}},
           /*memory_budget_bytes=*/4096, tmp, /*merge_fanin=*/4);
     },
     [](const std::vector<Tuple>& in) { return SortedByKeyThenValueDesc(in); },
     true},
    {"groupby",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashGroupByOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<TupleEval>{Field(0)},
           std::vector<AggSpec>{{AggKind::kCount, nullptr},
                                {AggKind::kSum, Field(1)}},
           AggPhase::kComplete, 1 << 24, tmp);
     },
     [](const std::vector<Tuple>& in) { return CountAndSumByKey(in); }, false},
    {"groupby_spill",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashGroupByOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::vector<TupleEval>{Field(0)},
           std::vector<AggSpec>{{AggKind::kCount, nullptr},
                                {AggKind::kSum, Field(1)}},
           AggPhase::kComplete, /*memory_budget_bytes=*/512, tmp);
     },
     [](const std::vector<Tuple>& in) { return CountAndSumByKey(in); }, false},
    {"join_inner",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::make_unique<VectorSource>(BuildSide(37)),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kInner, 1 << 24, tmp);
     },
     [](const std::vector<Tuple>& in) {
       return JoinWithBuildSide(in, 37, JoinType::kInner);
     },
     false},
    {"join_grace",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::make_unique<VectorSource>(BuildSide(37)),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kInner, /*memory_budget_bytes=*/512, tmp);
     },
     [](const std::vector<Tuple>& in) {
       return JoinWithBuildSide(in, 37, JoinType::kInner);
     },
     false},
    {"join_left_outer",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::make_unique<VectorSource>(BuildSide(20)),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kLeftOuter, 1 << 24, tmp);
     },
     [](const std::vector<Tuple>& in) {
       return JoinWithBuildSide(in, 20, JoinType::kLeftOuter);
     },
     false},
    {"join_left_semi",
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           std::make_unique<VectorSource>(std::move(in)),
           std::make_unique<VectorSource>(BuildSide(20)),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kLeftSemi, 1 << 24, tmp);
     },
     [](const std::vector<Tuple>& in) {
       return JoinWithBuildSide(in, 20, JoinType::kLeftSemi);
     },
     false},
    {"merge",  // two sorted halves merged on v: the input order again
     [](std::vector<Tuple> in, TempFileManager* tmp) -> StreamPtr {
       size_t half = in.size() / 2;
       std::vector<Tuple> a(std::make_move_iterator(in.begin()),
                            std::make_move_iterator(in.begin() +
                                                    static_cast<ptrdiff_t>(half)));
       std::vector<Tuple> b(std::make_move_iterator(in.begin() +
                                                    static_cast<ptrdiff_t>(half)),
                            std::make_move_iterator(in.end()));
       std::vector<StreamPtr> children;
       children.push_back(std::make_unique<ExternalSortOp>(
           std::make_unique<VectorSource>(std::move(a)),
           std::vector<SortKey>{{Field(1), true}}, 1 << 24, tmp));
       children.push_back(std::make_unique<ExternalSortOp>(
           std::make_unique<VectorSource>(std::move(b)),
           std::vector<SortKey>{{Field(1), true}}, 1 << 24, tmp));
       return std::make_unique<OrderedMergeStream>(
           std::move(children), std::vector<SortKey>{{Field(1), true}});
     },
     [](const std::vector<Tuple>& in) { return in; }, true},
    {"merge_interleaved",  // every merged tuple switches child
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       std::vector<Tuple> even, odd;
       for (auto& t : in) (V(t) % 2 == 0 ? even : odd).push_back(std::move(t));
       std::vector<StreamPtr> children;
       children.push_back(std::make_unique<VectorSource>(std::move(even)));
       children.push_back(std::make_unique<VectorSource>(std::move(odd)));
       return std::make_unique<OrderedMergeStream>(
           std::move(children), std::vector<SortKey>{{Field(1), true}});
     },
     [](const std::vector<Tuple>& in) { return in; }, true},
    {"union_all",
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       size_t half = in.size() / 2;
       std::vector<Tuple> a(std::make_move_iterator(in.begin()),
                            std::make_move_iterator(in.begin() +
                                                    static_cast<ptrdiff_t>(half)));
       std::vector<Tuple> b(std::make_move_iterator(in.begin() +
                                                    static_cast<ptrdiff_t>(half)),
                            std::make_move_iterator(in.end()));
       std::vector<StreamPtr> children;
       children.push_back(std::make_unique<VectorSource>(std::move(a)));
       children.push_back(std::make_unique<VectorSource>(std::move(b)));
       return std::make_unique<UnionAllOp>(std::move(children));
     },
     [](const std::vector<Tuple>& in) { return in; }, true},
    {"limit",  // truncates the second batch
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<LimitOp>(
           std::make_unique<VectorSource>(std::move(in)), /*limit=*/257);
     },
     [](const std::vector<Tuple>& in) { return Slice(in, 0, 257); }, true},
    {"limit_offset_crosses_batch",  // offset 300 skips a whole batch
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<LimitOp>(
           std::make_unique<VectorSource>(std::move(in)), /*limit=*/200,
           /*offset=*/300);
     },
     [](const std::vector<Tuple>& in) { return Slice(in, 300, 200); }, true},
    {"limit_over_select",  // offset and limit over partial batches
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       StreamPtr s = std::make_unique<SelectOp>(
           std::make_unique<VectorSource>(std::move(in)), GreaterThan(1, 9));
       s = std::make_unique<LimitOp>(std::move(s), /*limit=*/500,
                                     /*offset=*/7);
       return std::make_unique<ProjectOp>(std::move(s),
                                          std::vector<size_t>{1});
     },
     [](const std::vector<Tuple>& in) {
       return Project(Slice(Filter(in, 9), 7, 500), {1});
     },
     true},
    {"unnest",  // one input carries more items than a batch holds
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<UnnestOp>(
           std::make_unique<VectorSource>(std::move(in)), UnnestCollection());
     },
     [](const std::vector<Tuple>& in) { return ExpectUnnest(in, false); },
     true},
    {"unnest_outer",
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return std::make_unique<UnnestOp>(
           std::make_unique<VectorSource>(std::move(in)), UnnestCollection(),
           /*outer=*/true);
     },
     [](const std::vector<Tuple>& in) { return ExpectUnnest(in, true); },
     true},
    {"distinct",  // runs of 100 equal values, some spanning batches
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return DistinctRuns(std::move(in), 100);
     },
     [](const std::vector<Tuple>& in) { return ExpectDistinctRuns(in, 100); },
     true},
    {"distinct_long_runs",  // a whole batch equal to the previous batch's tail
     [](std::vector<Tuple> in, TempFileManager*) -> StreamPtr {
       return DistinctRuns(std::move(in), 300);
     },
     [](const std::vector<Tuple>& in) { return ExpectDistinctRuns(in, 300); },
     true},
};

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<ParityCase, int>> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axbatch_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    tmp_ = std::make_unique<TempFileManager>(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  std::unique_ptr<TempFileManager> tmp_;
};

TEST_P(BatchParityTest, MatchesStdReference) {
  const auto& [c, n] = GetParam();
  const std::vector<Tuple> input = MakeInput(n);
  auto stream = c.build(input, tmp_.get());
  auto got = DrainChecked(stream.get());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<Tuple> want = c.expect(input);
  if (c.ordered) {
    EXPECT_EQ(InOrder(got.value()), InOrder(want));
  } else {
    EXPECT_EQ(Sorted(got.value()), Sorted(want));
  }
  // No spill file outlives the operator.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

INSTANTIATE_TEST_SUITE_P(
    Operators, BatchParityTest,
    ::testing::Combine(::testing::ValuesIn(kCases), ::testing::ValuesIn(kSizes)),
    [](const ::testing::TestParamInfo<std::tuple<ParityCase, int>>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Batch shape ------------------------------------------------------------

TEST(Batch, VectorSourceEmitsFullThenPartialBatches) {
  VectorSource src(MakeInput(600));
  ASSERT_TRUE(src.Open().ok());
  Batch b;
  ASSERT_TRUE(src.NextBatch(&b).value());
  EXPECT_EQ(b.size(), kFrameTuples);
  ASSERT_TRUE(src.NextBatch(&b).value());
  EXPECT_EQ(b.size(), kFrameTuples);
  ASSERT_TRUE(src.NextBatch(&b).value());
  EXPECT_EQ(b.size(), 600 - 2 * kFrameTuples);
  EXPECT_FALSE(src.NextBatch(&b).value());
  EXPECT_TRUE(b.empty());
  ASSERT_TRUE(src.Close().ok());
}

// ---- Exchanges --------------------------------------------------------------

enum class Route { kSingle, kHash, kBroadcast };

/// Run `n_producers` -> `n_consumers` with `route`, `rows` tuples per
/// producer, and check each consumer's multiset against the routing rule:
/// single sends everything to consumer 0, broadcast everything to every
/// consumer, and hash sends all of the input, each key to exactly one
/// consumer.
void ExpectExchangeRouting(size_t n_producers, size_t n_consumers,
                           Route route, int rows) {
  SCOPED_TRACE("rows per producer " + std::to_string(rows));
  Job job;
  Exchange* ex = job.AddExchange(n_producers, n_consumers);
  std::vector<Tuple> all;
  for (size_t p = 0; p < n_producers; p++) {
    std::vector<Tuple> data;
    for (int i = 0; i < rows; i++) {
      data.push_back(T({Value::Int(i % 23),
                        Value::Int(static_cast<int64_t>(p) * 1000 + i)}));
    }
    all.insert(all.end(), data.begin(), data.end());
    job.AddProducerTask([ex, route, n_consumers,
                         data = std::move(data)]() mutable {
      VectorSource src(std::move(data));
      Exchange::RoutingFn fn =
          route == Route::kBroadcast ? Exchange::BroadcastRoute()
          : route == Route::kHash    ? Exchange::HashRoute({Field(0)}, n_consumers)
                                     : Exchange::SingleRoute();
      return ex->RunProducer(&src, fn);
    });
  }
  std::vector<StreamPtr> roots;
  for (size_t c = 0; c < n_consumers; c++) {
    roots.push_back(ex->ConsumerStream(c));
  }
  auto results = job.RunCollect(std::move(roots));
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const auto& per_consumer = results.value();
  ASSERT_EQ(per_consumer.size(), n_consumers);
  const std::vector<std::string> want_all = Sorted(all);
  switch (route) {
    case Route::kSingle:
      EXPECT_EQ(Sorted(per_consumer[0]), want_all);
      for (size_t c = 1; c < n_consumers; c++) {
        EXPECT_TRUE(per_consumer[c].empty()) << "consumer " << c;
      }
      break;
    case Route::kBroadcast:
      for (size_t c = 0; c < n_consumers; c++) {
        EXPECT_EQ(Sorted(per_consumer[c]), want_all) << "consumer " << c;
      }
      break;
    case Route::kHash: {
      std::vector<Tuple> merged;
      std::map<int64_t, std::set<size_t>> owners;
      for (size_t c = 0; c < n_consumers; c++) {
        for (const auto& t : per_consumer[c]) {
          owners[K(t)].insert(c);
          merged.push_back(t);
        }
      }
      EXPECT_EQ(Sorted(merged), want_all);
      for (const auto& [k, cs] : owners) {
        EXPECT_EQ(cs.size(), 1u) << "key " << k << " reached several consumers";
      }
      break;
    }
  }
}

TEST(BatchExchange, OneToOneParity) {
  for (int rows : kSizes) ExpectExchangeRouting(1, 1, Route::kSingle, rows);
}

TEST(BatchExchange, HashMToNParity) {
  for (int rows : kSizes) ExpectExchangeRouting(3, 4, Route::kHash, rows);
}

TEST(BatchExchange, BroadcastParity) {
  for (int rows : kSizes) ExpectExchangeRouting(2, 3, Route::kBroadcast, rows);
}

TEST(BatchExchange, MergeManyToOneParity) {
  for (int rows : kSizes) ExpectExchangeRouting(4, 1, Route::kSingle, rows);
}

TEST(BatchExchange, OneToOnePreservesOrder) {
  Exchange ex(1, 1);
  std::thread producer([&ex] {
    VectorSource src(MakeInput(600));
    ASSERT_TRUE(ex.RunProducer(&src, Exchange::SingleRoute()).ok());
  });
  StreamPtr consumer = ex.ConsumerStream(0);
  auto got = DrainChecked(consumer.get());
  producer.join();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 600u);
  for (int i = 0; i < 600; i++) {
    EXPECT_EQ(V(got.value()[static_cast<size_t>(i)]), i);
  }
}

// ---- Error (poison) propagation --------------------------------------------

TEST(BatchErrors, MidBatchErrorSurfacesThroughMigratedOperators) {
  // One good batch, then a mid-stream failure.
  SelectOp op(std::make_unique<FailingSource>(/*good_batches=*/1, 10),
              GreaterThan(0, -1));
  auto r = CollectAll(&op);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(BatchErrors, BatchProducerFailurePoisonsExchange) {
  Job job;
  Exchange* ex = job.AddExchange(1, 2);
  job.AddProducerTask([ex]() {
    FailingSource src(/*good_batches=*/2, 50);
    return ex->RunProducer(&src, Exchange::BroadcastRoute());
  });
  std::vector<StreamPtr> roots;
  for (int c = 0; c < 2; c++) roots.push_back(ex->ConsumerStream(c));
  auto result = job.RunCollect(std::move(roots));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---- Metrics ----------------------------------------------------------------

TEST(BatchMetrics, MigratedSourceCountsBatchesAndTuples) {
  auto before = metrics::Registry::Global().Snapshot();
  VectorSource src(MakeInput(600));
  auto out = CollectAll(&src).value();
  ASSERT_EQ(out.size(), 600u);
  auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.value("hyracks.batch.batches_emitted"), 3u);
  EXPECT_EQ(delta.value("hyracks.batch.tuples"), 600u);
}

}  // namespace
}  // namespace asterix::hyracks
