// Tests of the benchmark's own helpers (helpers.h): the tail-percentile
// rule, the metric-name grammar, and the reference tallies on a tiny seed,
// checked against a brute-force count and against a live Instance.
// perfbench/run.py runs this before every benchmark run, from the build
// directory (the Instance test writes its data under the working directory).
#include <gtest/gtest.h>

#include <filesystem>

#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "helpers.h"

namespace perfbench {
namespace {

using asterix::adm::Value;

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(SupportedTailPercentile(0), 0);
  EXPECT_EQ(SupportedTailPercentile(19), 0);
  EXPECT_EQ(SupportedTailPercentile(20), 50);
  EXPECT_EQ(SupportedTailPercentile(39), 50);
  EXPECT_EQ(SupportedTailPercentile(40), 75);
  EXPECT_EQ(SupportedTailPercentile(99), 75);
  EXPECT_EQ(SupportedTailPercentile(100), 90);
  EXPECT_EQ(SupportedTailPercentile(200), 95);
  EXPECT_EQ(SupportedTailPercentile(1000), 99);
  EXPECT_EQ(SupportedTailPercentile(9999), 99);
  EXPECT_EQ(SupportedTailPercentile(10000), 99.9);
  EXPECT_EQ(SupportedTailPercentile(10000, /*cap=*/99), 99);
  EXPECT_EQ(SupportedTailPercentile(10000, /*cap=*/95), 95);
}

TEST(TailPercentile, NearestRank) {
  std::vector<double> v;
  for (int i = 10; i >= 1; i--) v.push_back(i);
  EXPECT_EQ(Percentile(&v, 50), 5);
  EXPECT_EQ(Percentile(&v, 90), 9);
  EXPECT_EQ(Percentile(&v, 99), 10);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_TRUE(std::isnan(Median({})));
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
  EXPECT_TRUE(std::isnan(GeoMean({1, 0})));
}

TEST(MetricNames, Grammar) {
  for (const char* ok : {"setup_s", "read_ms_p50", "storage.lsm.write_amp",
                         "hyracks.exchange.tuples_per_query", "a-b", "9x"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a:b", "é"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

asterix::gleambook::GeneratorOptions Tiny() {
  asterix::gleambook::GeneratorOptions o;
  o.seed = 7;
  o.num_users = 60;
  o.num_messages = 400;
  return o;
}

TEST(Reference, TallyMatchesBruteForce) {
  asterix::gleambook::Generator gen(Tiny());
  std::vector<Value> users = gen.Users(), msgs = gen.Messages();
  Reference ref;
  for (const auto& u : users) ref.PutUser(u);
  for (const auto& m : msgs) ref.PutMessage(m);
  // Delete a few and rewrite one, as the operational workload does.
  ASSERT_TRUE(ref.DeleteMessage(3));
  ASSERT_FALSE(ref.DeleteMessage(3));
  ASSERT_TRUE(ref.DeleteMessage(250));
  ref.PutMessage(msgs[250]);
  std::vector<bool> live(msgs.size(), true);
  live[3] = false;

  std::map<int64_t, int64_t> friends, by_author, bucket;
  for (const auto& u : users) {
    friends[u.GetField("id").AsInt()] =
        static_cast<int64_t>(u.GetField("friendIds").items().size());
  }
  int64_t count = 0, join = 0;
  for (size_t i = 0; i < msgs.size(); i++) {
    if (!live[i]) continue;
    int64_t a = msgs[i].GetField("authorId").AsInt();
    count++;
    by_author[a]++;
    bucket[a % 128]++;
    if (friends[a] > 5) join++;
  }
  Reference::Tally t = ref.ComputeTally();
  EXPECT_EQ(t.count, count);
  EXPECT_EQ(ref.live_messages(), count);
  EXPECT_EQ(t.join_count, join);
  EXPECT_EQ(t.bucket_count, bucket);
  EXPECT_EQ(t.author_count, by_author);
  ASSERT_EQ(t.topk_counts.size(), Reference::kTopK);
  std::vector<int64_t> sorted;
  for (auto& [a, n] : by_author) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  sorted.resize(Reference::kTopK);
  EXPECT_EQ(t.topk_counts, sorted);
  EXPECT_EQ(ref.Find(3), nullptr);
  ASSERT_NE(ref.Find(250), nullptr);
  EXPECT_EQ(ref.Find(250)->hash, msgs[250].Hash());
}

/// The checks accept the system's answers on the tiny data set and reject
/// perturbed ones.
TEST(Reference, ChecksAgreeWithInstance) {
  const std::string dir = "helpers_test_db";
  std::filesystem::remove_all(dir);
  asterix::InstanceOptions opts;
  opts.base_dir = dir;
  opts.num_partitions = 2;
  auto inst = asterix::Instance::Open(opts).value();
  ASSERT_TRUE(
      inst->ExecuteScript(asterix::gleambook::Generator::Ddl(true)).ok());
  asterix::gleambook::Generator gen(Tiny());
  Reference ref;
  for (const auto& u : gen.Users()) {
    ASSERT_TRUE(inst->UpsertValue("GleambookUsers", u).ok());
    ref.PutUser(u);
  }
  for (const auto& m : gen.Messages()) {
    ASSERT_TRUE(inst->UpsertValue("GleambookMessages", m).ok());
    ref.PutMessage(m);
  }
  ASSERT_TRUE(inst->DeleteByKey("GleambookMessages", Value::Int(5)).value());
  ref.DeleteMessage(5);
  const Reference::Tally t = ref.ComputeTally();
  auto rows = [&](const std::string& q) {
    auto r = inst->Execute(q);
    EXPECT_TRUE(r.ok()) << q;
    return r.ok() ? r.value().rows : std::vector<Value>{};
  };
  EXPECT_EQ(CheckCount(rows(kCountQuery), t), "");
  EXPECT_EQ(CheckAgg(rows(kAggQuery), t), "");
  EXPECT_EQ(CheckJoin(rows(kJoinQuery), t), "");
  EXPECT_EQ(CheckTopK(rows(kTopKQuery), t), "");
  EXPECT_EQ(CheckLookup(rows(LookupQuery(7)), ref, 7), "");
  EXPECT_EQ(CheckLookup(rows(LookupQuery(5)), ref, 5), "");
  const int64_t author = ref.Find(7)->author;
  EXPECT_EQ(CheckIndexQuery(rows(IndexQuery(author)), ref, author), "");

  // Wrong answers are caught.
  EXPECT_NE(CheckLookup(rows(LookupQuery(8)), ref, 7), "");
  EXPECT_NE(CheckLookup(rows(LookupQuery(7)), ref, 5), "");
  EXPECT_NE(CheckIndexQuery({}, ref, author), "");
  auto agg = rows(kAggQuery);
  agg.pop_back();
  EXPECT_NE(CheckAgg(agg, t), "");
  auto topk = rows(kTopKQuery);
  std::swap(topk.front(), topk.back());
  EXPECT_NE(CheckTopK(topk, t), "");
  auto count_row = [](int64_t n) {
    return std::vector<Value>{
        asterix::adm::ObjectBuilder().Add("n", Value::Int(n)).Build()};
  };
  EXPECT_NE(CheckCount(count_row(t.count + 1), t), "");
  // Bounded checks (htap): up to `absent.max` tallied messages may be
  // missing, at least `absent.min` must be.
  EXPECT_EQ(CheckCount(count_row(t.count - 2), t, {1, 3}), "");
  EXPECT_NE(CheckCount(count_row(t.count), t, {1, 3}), "");
  EXPECT_NE(CheckCount(count_row(t.count - 4), t, {1, 3}), "");
  inst.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
