// Property tests for the parallel executor: query results must be
// invariant under the partition count (the Fig. 1 shared-nothing claim —
// partitioning is a physical property, not a semantic one), plus error
// paths and recovery edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "common/metrics.h"
#include "hyracks/profile.h"

namespace asterix {
namespace {

using adm::Value;

std::vector<Value> Canon(std::vector<Value> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return rows;
}

class PartitionInvariance : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axpar_" + std::to_string(GetParam()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = GetParam();
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_->ExecuteScript(gleambook::Generator::Ddl(true)).ok());
    gleambook::GeneratorOptions gen_opts;
    gen_opts.num_users = 300;
    gen_opts.num_messages = 900;
    gleambook::Generator gen(gen_opts);
    for (const auto& u : gen.Users()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookUsers", u).ok());
    }
    for (const auto& m : gen.Messages()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookMessages", m).ok());
    }
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

// The reference results come from a single-partition instance; every other
// partition count must match them exactly.
TEST_P(PartitionInvariance, QuerySuiteMatchesSinglePartition) {
  const char* queries[] = {
      "SELECT VALUE u.id FROM GleambookUsers u WHERE u.id < 20 ORDER BY u.id",
      "SELECT g AS author, COUNT(m.messageId) AS n FROM GleambookMessages m "
      "GROUP BY m.authorId AS g ORDER BY n DESC, author LIMIT 15",
      "SELECT COUNT(*) AS n, MIN(m.messageId) AS lo, MAX(m.messageId) AS hi "
      "FROM GleambookMessages m",
      "SELECT u.id AS uid, COUNT(m.messageId) AS cnt FROM GleambookUsers u "
      "JOIN GleambookMessages m ON m.authorId = u.id "
      "GROUP BY u.id AS uid ORDER BY cnt DESC, uid LIMIT 10",
      "SELECT DISTINCT COLL_COUNT(u.friendIds) AS nf FROM GleambookUsers u "
      "ORDER BY nf",
      "SELECT VALUE m.messageId FROM GleambookMessages m "
      "WHERE ftcontains(m.message, \"word1\") ",
  };
  // Build the single-partition reference lazily (shared across params is
  // not possible with TEST_P fixtures, so recompute; data is identical
  // because the generator is deterministic).
  std::string ref_dir = dir_ + "_ref";
  std::filesystem::remove_all(ref_dir);
  InstanceOptions ref_opts;
  ref_opts.base_dir = ref_dir;
  ref_opts.num_partitions = 1;
  auto reference = Instance::Open(ref_opts).value();
  ASSERT_TRUE(reference->ExecuteScript(gleambook::Generator::Ddl(true)).ok());
  gleambook::GeneratorOptions gen_opts;
  gen_opts.num_users = 300;
  gen_opts.num_messages = 900;
  gleambook::Generator gen(gen_opts);
  for (const auto& u : gen.Users()) {
    ASSERT_TRUE(reference->UpsertValue("GleambookUsers", u).ok());
  }
  for (const auto& m : gen.Messages()) {
    ASSERT_TRUE(reference->UpsertValue("GleambookMessages", m).ok());
  }

  for (const char* q : queries) {
    auto got = instance_->Execute(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    auto want = reference->Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    auto g = Canon(got->rows);
    auto w = Canon(want->rows);
    ASSERT_EQ(g.size(), w.size()) << q;
    for (size_t i = 0; i < g.size(); i++) {
      EXPECT_EQ(g[i], w[i]) << q << " row " << i << ": " << g[i].ToString()
                            << " vs " << w[i].ToString();
    }
  }
  reference.reset();
  std::filesystem::remove_all(ref_dir);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionInvariance,
                         ::testing::Values(2, 3, 5, 8));

class ErrorPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axerr_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    instance_ = Instance::Open(opts).value();
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ErrorPathTest, QueriesAgainstMissingObjects) {
  auto r = instance_->Execute("SELECT VALUE x.y FROM NoSuchDataset x");
  EXPECT_FALSE(r.ok());
  r = instance_->Execute("CREATE DATASET D(NoSuchType) PRIMARY KEY id");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = instance_->Execute("DROP DATASET NoSuchDataset");
  EXPECT_FALSE(r.ok());
  r = instance_->Execute("INSERT INTO NoSuchDataset ({\"id\": 1})");
  EXPECT_FALSE(r.ok());
}

TEST_F(ErrorPathTest, UnresolvedIdentifiersAndUnknownFunctions) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id").ok());
  auto r = instance_->Execute("SELECT VALUE nosuchvar FROM D d");
  EXPECT_FALSE(r.ok());
  r = instance_->Execute("SELECT VALUE no_such_function(d.id) FROM D d");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ErrorPathTest, RecordsWithoutPrimaryKeyRejected) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id").ok());
  auto r = instance_->Execute("INSERT INTO D ({\"other\": 1})");
  EXPECT_FALSE(r.ok());
  // Non-object payloads rejected too.
  r = instance_->Execute("INSERT INTO D (42)");
  EXPECT_FALSE(r.ok());
}

TEST_F(ErrorPathTest, ExternalDatasetMissingFile) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE L AS CLOSED { a: string };"
      "CREATE EXTERNAL DATASET E(L) USING localfs "
      "((\"path\"=\"/no/such/file.txt\"))").ok());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM E e");
  EXPECT_FALSE(r.ok());  // surfaced, not crashed
}

TEST_F(ErrorPathTest, SecondaryIndexBackfillOnCreate) {
  // Index created AFTER data exists must see that data.
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int, v: int };"
      "CREATE DATASET D(T) PRIMARY KEY id").ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(instance_
                    ->Execute("INSERT INTO D ({\"id\": " + std::to_string(i) +
                              ", \"v\": " + std::to_string(i % 5) + "})")
                    .ok());
  }
  ASSERT_TRUE(instance_->Execute("CREATE INDEX vIdx ON D (v) TYPE BTREE").ok());
  auto r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);
  EXPECT_NE(r->plan.find("btree-search"), std::string::npos);
}

TEST_F(ErrorPathTest, IndexMaintainedThroughUpdateAndDelete) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int, v: int };"
      "CREATE DATASET D(T) PRIMARY KEY id;"
      "CREATE INDEX vIdx ON D (v) TYPE BTREE").ok());
  ASSERT_TRUE(instance_->Execute("INSERT INTO D ({\"id\": 1, \"v\": 10})").ok());
  // Update moves the record to a new secondary key.
  ASSERT_TRUE(instance_->Execute("UPSERT INTO D ({\"id\": 1, \"v\": 20})").ok());
  auto r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 10");
  EXPECT_TRUE(r->rows.empty()) << "stale index entry";
  r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 20");
  EXPECT_EQ(r->rows.size(), 1u);
  // Delete removes the index entry.
  ASSERT_TRUE(instance_->Execute("DELETE FROM D d WHERE d.id = 1").ok());
  r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 20");
  EXPECT_TRUE(r->rows.empty());
}

// A LIMIT above an exchange stops reading it early. The producers still
// feeding that exchange must stop too, not block on its full queue (16
// frames) forever. Each query runs under a deadline, so a regression fails
// with DeadlineExceeded instead of hanging the suite.
class EarlyCloseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axearly_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 4;
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_->ExecuteScript(gleambook::Generator::Ddl(false)).ok());
    gleambook::GeneratorOptions gen_opts;
    gen_opts.num_users = 2000;
    // ~6k messages per partition: well past one 4096-tuple queue.
    gen_opts.num_messages = 24000;
    gleambook::Generator gen(gen_opts);
    for (const auto& u : gen.Users()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookUsers", u).ok());
    }
    for (const auto& m : gen.Messages()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookMessages", m).ok());
    }
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  Result<QueryResult> Run(const std::string& query) {
    QueryRunOptions run;
    run.deadline_ms = 30'000;
    return instance_->Query(query, run);
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(EarlyCloseTest, LimitOverScanReturns) {
  // Each partition's local LIMIT lets 5000 rows through to the merge
  // exchange; the final LIMIT stops after 5000 of the 20000.
  auto r = Run("SELECT VALUE m.messageId FROM GleambookMessages m LIMIT 5000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 5000u);
}

TEST_F(EarlyCloseTest, LimitOverStreamingJoinReturns) {
  // The probe side (messages, the left input) reaches each join partition
  // through a hash exchange; after one result the join stops probing.
  auto r = Run(
      "SELECT VALUE m.messageId FROM GleambookMessages m "
      "JOIN GleambookUsers u ON m.authorId = u.id LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(EarlyCloseTest, InstanceStaysUsableAfterEarlyClose) {
  ASSERT_TRUE(Run("SELECT VALUE m FROM GleambookMessages m LIMIT 3000").ok());
  auto r = Run("SELECT COUNT(*) AS n FROM GleambookMessages m");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].GetField("n").AsInt(), 24000);
}

// Join and group-by keys are equal when the values compare equal — int 1
// and double 1.0 are one key, as they are for `=` and for DISTINCT —
// whatever the partition count and whether the operators spill.
struct KeyEqualityCase {
  size_t partitions;
  size_t op_budget;  // 0 = the default budget
};

class NumericKeyEquality : public ::testing::TestWithParam<KeyEqualityCase> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axkeyeq_" +
           std::to_string(GetParam().partitions) + "_" +
           std::to_string(GetParam().op_budget);
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = GetParam().partitions;
    if (GetParam().op_budget > 0) {
      opts.op_memory_budget_bytes = GetParam().op_budget;
    }
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_->ExecuteScript(
        "CREATE TYPE T AS { id: int };"
        "CREATE DATASET A(T) PRIMARY KEY id;"
        "CREATE DATASET B(T) PRIMARY KEY id;"
        "CREATE DATASET G(T) PRIMARY KEY id;"
        "INSERT INTO A ({\"id\": 1, \"k\": 1});"
        "INSERT INTO A ({\"id\": 2, \"k\": 2.0});"
        "INSERT INTO B ({\"id\": 1, \"k\": 1.0});"
        "INSERT INTO B ({\"id\": 2, \"k\": 2});"
        "INSERT INTO G ({\"id\": 1, \"k\": 1});"
        "INSERT INTO G ({\"id\": 2, \"k\": 1.0});"
        "INSERT INTO G ({\"id\": 3, \"k\": 2});"
        "INSERT INTO G ({\"id\": 4, \"k\": 2.0})").ok());
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  int64_t Count(const std::string& query) {
    auto r = instance_->Execute(query);
    EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
    if (!r.ok() || r->rows.size() != 1) return -1;
    return r->rows[0].GetField("n").AsInt();
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_P(NumericKeyEquality, JoinMatchesIntAgainstDouble) {
  auto before = metrics::Registry::Global().Snapshot();
  EXPECT_EQ(Count("SELECT COUNT(*) AS n FROM A a JOIN B b ON a.k = b.k"), 2);
  EXPECT_EQ(Count("SELECT COUNT(*) AS n FROM A a, B b WHERE a.k = b.k"), 2);
  auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
  if (GetParam().op_budget > 0) {
    EXPECT_GT(delta.value("hyracks.join.partitions_spilled"), 0u)
        << "the tiny budget should force the grace path";
  }
}

TEST_P(NumericKeyEquality, GroupByMergesIntAndDouble) {
  auto before = metrics::Registry::Global().Snapshot();
  auto r = instance_->Execute(
      "SELECT k, COUNT(*) AS n FROM G g GROUP BY g.k AS k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  for (const auto& row : r->rows) EXPECT_EQ(row.GetField("n").AsInt(), 2);
  auto distinct = instance_->Execute("SELECT DISTINCT g.k AS k FROM G g");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct->rows.size(), 2u);
  auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
  if (GetParam().op_budget > 0) {
    EXPECT_GT(delta.value("hyracks.groupby.spill_partitions"), 0u)
        << "the tiny budget should force group-by spills";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionsAndBudgets, NumericKeyEquality,
    ::testing::Values(KeyEqualityCase{1, 0}, KeyEqualityCase{4, 0},
                      KeyEqualityCase{1, 1}, KeyEqualityCase{4, 1}),
    [](const ::testing::TestParamInfo<KeyEqualityCase>& info) {
      std::string name = "p";
      name.append(std::to_string(info.param.partitions))
          .append(info.param.op_budget > 0 ? "_tiny_budget" : "_default_budget");
      return name;
    });

// At one partition both join inputs already sit in the join's only
// partition, so the keyed join must not route them through a 1->1 hash
// exchange (a producer thread and queue per side). The answers of every
// join kind must match a 4-partition instance, which does repartition.
class SinglePartitionJoin : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "axjoin1_";
    one_ = Load(base_ + "p1", 1, /*profile=*/true);
    four_ = Load(base_ + "p4", 4, /*profile=*/false);
  }
  void TearDown() override {
    one_.reset();
    four_.reset();
    std::filesystem::remove_all(base_ + "p1");
    std::filesystem::remove_all(base_ + "p4");
  }
  static std::unique_ptr<Instance> Load(const std::string& dir,
                                        size_t partitions, bool profile) {
    std::filesystem::remove_all(dir);
    InstanceOptions opts;
    opts.base_dir = dir;
    opts.num_partitions = partitions;
    opts.profile_queries = profile;
    auto inst = Instance::Open(opts).value();
    EXPECT_TRUE(inst->ExecuteScript(gleambook::Generator::Ddl(false)).ok());
    gleambook::GeneratorOptions gen_opts;
    gen_opts.num_users = 200;
    gen_opts.num_messages = 600;
    gleambook::Generator gen(gen_opts);
    for (const auto& u : gen.Users()) {
      EXPECT_TRUE(inst->UpsertValue("GleambookUsers", u).ok());
    }
    for (const auto& m : gen.Messages()) {
      EXPECT_TRUE(inst->UpsertValue("GleambookMessages", m).ok());
    }
    return inst;
  }
  // Labels of every profile node in the subtree under `id`, `id` excluded.
  static void Below(const hyracks::PlanProfile& profile, int id,
                    std::vector<std::string>* labels) {
    for (int c : profile.node(id).children) {
      labels->push_back(profile.node(c).label);
      Below(profile, c, labels);
    }
  }
  std::string base_;
  std::unique_ptr<Instance> one_;
  std::unique_ptr<Instance> four_;
};

TEST_F(SinglePartitionJoin, NoExchangeUnderJoinAndSameAnswers) {
  const char* queries[] = {
      // inner
      "SELECT u.id AS uid, m.messageId AS mid FROM GleambookUsers u "
      "JOIN GleambookMessages m ON m.authorId = u.id WHERE u.id < 60",
      // left outer: users with no message keep a MISSING mid
      "SELECT u.id AS uid, m.messageId AS mid FROM GleambookUsers u "
      "LEFT JOIN GleambookMessages m ON m.authorId = u.id",
      // left semi
      "SELECT VALUE u.id FROM GleambookUsers u "
      "WHERE SOME m IN GleambookMessages SATISFIES m.authorId = u.id",
  };
  for (const char* q : queries) {
    auto got = one_->Execute(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    auto want = four_->Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    ASSERT_FALSE(want->rows.empty()) << q;
    auto g = Canon(got->rows);
    auto w = Canon(want->rows);
    ASSERT_EQ(g.size(), w.size()) << q;
    for (size_t i = 0; i < g.size(); i++) {
      EXPECT_EQ(g[i], w[i]) << q << " row " << i << ": " << g[i].ToString()
                            << " vs " << w[i].ToString();
    }

    ASSERT_NE(got->profile, nullptr) << q;
    const auto& profile = *got->profile;
    int joins = 0;
    for (size_t i = 0; i < profile.size(); i++) {
      int id = static_cast<int>(i);
      if (profile.node(id).label != "JOIN(hash)") continue;
      joins++;
      std::vector<std::string> below;
      Below(profile, id, &below);
      for (const auto& label : below) {
        EXPECT_EQ(label.rfind("EXCHANGE", 0), std::string::npos)
            << q << "\n" << got->profiled_plan;
      }
    }
    EXPECT_EQ(joins, 1) << q << "\n" << got->profiled_plan;
  }
}

}  // namespace
}  // namespace asterix
