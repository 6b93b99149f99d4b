// Row-vs-columnar parity: the same dataset contents under both storage
// formats must answer every query identically — point lookups, range scans,
// projected scans, pushed predicates, deletes/antimatter, format-converting
// merges, and reopen of an instance with columnar components on disk. The
// projection tests add a third and fourth configuration, scan pushdown off,
// where every record is decoded whole. Runs under TSan in CI (concurrent
// readers share immutable components).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>


#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "common/io.h"
#include "common/metrics.h"

namespace asterix {
namespace {

using adm::Value;

class ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axpar_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    OpenInstance();
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  void OpenInstance() {
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    // Small budget: inserts auto-flush and auto-merge, exercising stacks of
    // several components (and the merge policy) under both formats.
    opts.lsm_mem_budget_bytes = 16u << 10;
    instance_ = Instance::Open(opts).value();
  }

  QueryResult Exec(const std::string& stmt) {
    auto r = instance_->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n  -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  // Create RowDs (default format) and ColDs (columnar) with identical
  // 10-field records.
  void LoadBoth(int n) {
    Exec("CREATE TYPE Rec AS OPEN { id: int }");
    Exec("CREATE DATASET RowDs(Rec) PRIMARY KEY id");
    Exec("CREATE DATASET ColDs(Rec) PRIMARY KEY id "
         "WITH { \"storage-format\" : \"columnar\" }");
    for (int i = 0; i < n; i++) {
      std::string rec = Record(i);
      Exec("INSERT INTO RowDs (" + rec + ")");
      Exec("INSERT INTO ColDs (" + rec + ")");
    }
  }

  static std::string Record(int i) {
    std::string s = std::to_string(i);
    std::string rec = "{\"id\": " + s + ", \"age\": " + std::to_string(i % 90) +
                      ", \"name\": \"user" + s + "\", \"city\": \"c" +
                      std::to_string(i % 7) + "\", \"score\": " +
                      std::to_string(i) + ".5, \"active\": " +
                      (i % 2 ? "true" : "false") + ", \"f7\": " + s +
                      ", \"f8\": \"pad" + s + "\", \"f9\": " + s +
                      ", \"addr\": {\"zip\": " + std::to_string(i % 10) +
                      ", \"street\": \"s" + s + "\"} ";  // "} }": "}}" ends a multiset
    if (i % 3 == 0) rec += ", \"extra\": null";
    rec += "}";
    return rec;
  }

  // Run the query against both datasets ("$DS" placeholder) and compare.
  void ExpectParity(const std::string& query_template) {
    auto render = [&](const std::string& ds) {
      std::string q = query_template;
      size_t pos;
      while ((pos = q.find("$DS")) != std::string::npos) q.replace(pos, 3, ds);
      return q;
    };
    QueryResult row = Exec(render("RowDs"));
    QueryResult col = Exec(render("ColDs"));
    ASSERT_EQ(row.rows.size(), col.rows.size()) << query_template;
    for (size_t i = 0; i < row.rows.size(); i++) {
      EXPECT_EQ(row.rows[i], col.rows[i])
          << query_template << " row " << i << ": " << row.rows[i].ToString()
          << " vs " << col.rows[i].ToString();
    }
  }

  // Run `query_template` with every "$" replaced by "Row" (the row
  // datasets) and by "Col" (their columnar twins), each with scan pushdown
  // on and off. All four answers must agree; unordered results compare as
  // bags. Returns the row plan with pushdown on.
  std::string ExpectFourWayParity(const std::string& query_template,
                                  bool ordered) {
    auto render = [&](const std::string& prefix) {
      std::string q = query_template;
      size_t pos;
      while ((pos = q.find("$")) != std::string::npos) q.replace(pos, 1, prefix);
      return q;
    };
    algebricks::OptimizerOptions on;
    algebricks::OptimizerOptions off;
    off.scan_pushdown = false;
    std::vector<std::vector<Value>> answers;
    std::string row_plan;
    for (const char* prefix : {"Row", "Col"}) {
      for (const auto* opts : {&on, &off}) {
        std::string q = render(prefix);
        auto r = instance_->QueryWithOptions(q, *opts);
        EXPECT_TRUE(r.ok()) << q << "\n  -> " << r.status().ToString();
        if (!r.ok()) return "";
        if (answers.empty()) row_plan = r->plan;
        std::vector<Value> rows = r->rows;
        if (!ordered) std::sort(rows.begin(), rows.end());
        answers.push_back(std::move(rows));
      }
    }
    for (size_t i = 1; i < answers.size(); i++) {
      EXPECT_EQ(answers[i], answers[0])
          << query_template << " (configuration " << i << ")";
    }
    EXPECT_FALSE(answers[0].empty()) << query_template;
    return row_plan;
  }

  // Gleambook users and messages (with all secondary indexes) as RowUsers /
  // RowMessages and columnar ColUsers / ColMessages. Most data reaches disk
  // components; the last batch of upserts and some deletes stay in the
  // memory components.
  void LoadGleambook() {
    Exec("CREATE TYPE EmploymentType AS { organizationName: string, "
         "startDate: date, endDate: date? }");
    Exec("CREATE TYPE UserType AS { id: int, alias: string, name: string, "
         "userSince: datetime, friendIds: {{ int }}, "
         "employment: [EmploymentType] }");
    Exec("CREATE TYPE MessageType AS { messageId: int, authorId: int, "
         "inResponseTo: int?, senderLocation: point?, message: string }");
    for (const char* prefix : {"Row", "Col"}) {
      std::string p = prefix;
      std::string with = p == "Col"
          ? " WITH { \"storage-format\" : \"columnar\" }" : "";
      Exec("CREATE DATASET " + p + "Users(UserType) PRIMARY KEY id" + with);
      Exec("CREATE DATASET " + p + "Messages(MessageType) PRIMARY KEY "
           "messageId" + with);
      Exec("CREATE INDEX " + p + "AuthorIdx ON " + p +
           "Messages (authorId) TYPE BTREE");
      Exec("CREATE INDEX " + p + "LocIdx ON " + p +
           "Messages (senderLocation) TYPE RTREE");
      Exec("CREATE INDEX " + p + "TextIdx ON " + p +
           "Messages (message) TYPE KEYWORD");
    }
    gleambook::GeneratorOptions gopts;
    gopts.num_users = 120;
    gopts.num_messages = 500;
    gopts.max_friends = 12;
    gleambook::Generator gen(gopts);
    auto upsert_all = [&](const std::string& name, const Value& v) {
      for (const char* prefix : {"Row", "Col"}) {
        Status st = instance_->UpsertValue(prefix + name, v);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    };
    for (const Value& u : gen.Users()) upsert_all("Users", u);
    std::vector<Value> messages = gen.Messages();
    for (size_t i = 0; i < 400; i++) upsert_all("Messages", messages[i]);
    ASSERT_TRUE(instance_->Checkpoint().ok());
    for (size_t i = 400; i < messages.size(); i++) {
      upsert_all("Messages", messages[i]);
    }
    for (int64_t id = 10; id < 40; id++) {  // antimatter in memory only
      for (const char* prefix : {"Row", "Col"}) {
        auto del = instance_->DeleteByKey(std::string(prefix) + "Messages",
                                          Value::Int(id));
        ASSERT_TRUE(del.ok()) << del.status().ToString();
      }
    }
  }

  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ParityTest, FullAndProjectedScans) {
  LoadBoth(200);
  ASSERT_TRUE(instance_->Checkpoint().ok());  // force disk components
  // Columnar components actually formed on the columnar dataset.
  auto stats = instance_->DatasetStats("ColDs").value();
  EXPECT_GT(stats.columnar_components, 0u);
  ExpectParity("SELECT VALUE u FROM $DS u ORDER BY u.id");
  // Projection-heavy: 2 of 10 fields; only those columns load.
  uint64_t skipped_before = metrics::Registry::Global()
                                .GetCounter("storage.columnar.columns_skipped")
                                ->value();
  ExpectParity("SELECT u.name, u.score FROM $DS u ORDER BY u.id");
  uint64_t skipped_after = metrics::Registry::Global()
                               .GetCounter("storage.columnar.columns_skipped")
                               ->value();
  EXPECT_GT(skipped_after, skipped_before);
  ExpectParity("SELECT VALUE u.age FROM $DS u ORDER BY u.id");
  // COUNT(*): an empty pushed projection — no columns read at all.
  ExpectParity("SELECT COUNT(*) AS n FROM $DS u");
}

TEST_F(ParityTest, PointLookupsAndRanges) {
  LoadBoth(150);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  ExpectParity("SELECT VALUE u FROM $DS u WHERE u.id = 77");
  ExpectParity("SELECT VALUE u FROM $DS u WHERE u.id = 9999");
  ExpectParity(
      "SELECT VALUE u.name FROM $DS u WHERE u.id >= 40 AND u.id < 60 "
      "ORDER BY u.id");
}

TEST_F(ParityTest, PushedPredicates) {
  LoadBoth(200);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  uint64_t evals_before = metrics::Registry::Global()
                              .GetCounter(
                                  "storage.columnar.batch_predicate_evals")
                              ->value();
  // age is not the PK: no index path, so the conjunct is pushed into the
  // columnar scan and evaluated on the fixed-width column.
  ExpectParity(
      "SELECT u.id, u.name FROM $DS u WHERE u.age > 85 ORDER BY u.id");
  uint64_t evals_after = metrics::Registry::Global()
                             .GetCounter(
                                 "storage.columnar.batch_predicate_evals")
                             ->value();
  EXPECT_GT(evals_after, evals_before);
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE u.score <= 10.5 "
               "ORDER BY u.id");
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE u.city = \"c3\" "
               "ORDER BY u.id");
  // Predicate over a field that is NULL on some rows and absent on others:
  // 3-valued logic must drop those rows under both formats.
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE u.extra = null "
               "ORDER BY u.id");
  // Constant on the left (mirrored operator).
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE 85 < u.age "
               "ORDER BY u.id");
}

TEST_F(ParityTest, DeletesAndAntimatter) {
  LoadBoth(120);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  for (const char* ds : {"RowDs", "ColDs"}) {
    Exec(std::string("DELETE FROM ") + ds + " u WHERE u.id >= 50 AND u.id < 70");
  }
  ExpectParity("SELECT VALUE u.id FROM $DS u ORDER BY u.id");
  ASSERT_TRUE(instance_->Checkpoint().ok());  // antimatter now on disk
  ExpectParity("SELECT VALUE u.id FROM $DS u ORDER BY u.id");
  ExpectParity("SELECT VALUE u FROM $DS u WHERE u.id = 55");
  // Re-insert over deleted keys: newest component wins.
  for (const char* ds : {"RowDs", "ColDs"}) {
    Exec(std::string("INSERT INTO ") + ds + " ({\"id\": 55, \"age\": 1})");
  }
  ExpectParity("SELECT VALUE u.age FROM $DS u WHERE u.id = 55");
}

TEST_F(ParityTest, SurvivesReopen) {
  LoadBoth(100);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  instance_.reset();  // close with columnar components on disk
  OpenInstance();
  auto stats = instance_->DatasetStats("ColDs").value();
  EXPECT_GT(stats.columnar_components, 0u);
  // The catalog remembered the format across restart.
  EXPECT_EQ(instance_->metadata()->StorageFormat("ColDs"), "columnar");
  EXPECT_EQ(instance_->metadata()->StorageFormat("RowDs"), "row");
  ExpectParity("SELECT VALUE u FROM $DS u ORDER BY u.id");
  ExpectParity("SELECT u.name, u.age FROM $DS u WHERE u.age >= 80 "
               "ORDER BY u.id");
}

TEST_F(ParityTest, ConcurrentColumnarReaders) {
  LoadBoth(150);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  // Immutable columnar components must tolerate concurrent scans (TSan).
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; i++) {
        auto r = instance_->Execute(
            "SELECT u.name, u.score FROM ColDs u WHERE u.age > 50 "
            "ORDER BY u.id");
        if (!r.ok() || r.value().rows.empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ParityTest, ProjectionParityWithPushdownOff) {
  LoadGleambook();
  auto stats = instance_->DatasetStats("ColMessages").value();
  EXPECT_GT(stats.columnar_components, 0u);

  // COUNT(*) builds no fields: an empty pushed set.
  std::string plan = ExpectFourWayParity(
      "SELECT COUNT(*) AS n FROM $Messages m", true);
  EXPECT_NE(plan.find("data-scan RowMessages -> $"), std::string::npos);
  EXPECT_NE(plan.find("project:[]"), std::string::npos) << plan;
  // The FIG1 aggregation and join.
  plan = ExpectFourWayParity(
      "SELECT g AS bucket, COUNT(m.messageId) AS n, "
      "MAX(string_length(m.message)) AS longest "
      "FROM $Messages m GROUP BY m.authorId % 128 AS g", false);
  EXPECT_NE(plan.find("project:[authorId,message,messageId]"),
            std::string::npos) << plan;
  plan = ExpectFourWayParity(
      "SELECT COUNT(*) AS n FROM $Users u "
      "JOIN $Messages m ON m.authorId = u.id "
      "WHERE COLL_COUNT(u.friendIds) > 5", true);
  EXPECT_NE(plan.find("project:[friendIds,id]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("project:[authorId]"), std::string::npos) << plan;
  // Top-k.
  ExpectFourWayParity(
      "SELECT a AS authorId, COUNT(*) AS n FROM $Messages m "
      "GROUP BY m.authorId AS a ORDER BY n DESC, a LIMIT 10", true);
  // The whole record is output: nothing is pushed.
  plan = ExpectFourWayParity(
      "SELECT VALUE m FROM $Messages m ORDER BY m.messageId", true);
  EXPECT_EQ(plan.find("project:"), std::string::npos) << plan;
  plan = ExpectFourWayParity("SELECT DISTINCT VALUE m FROM $Messages m", false);
  EXPECT_EQ(plan.find("project:"), std::string::npos) << plan;
  // A nested path pushes only its top-level field.
  plan = ExpectFourWayParity(
      "SELECT VALUE u.employment[0].organizationName FROM $Users u "
      "ORDER BY u.id", true);
  EXPECT_NE(plan.find("project:[employment,id]"), std::string::npos) << plan;
  // Fields used only inside a LET, and only inside a SOME ... SATISFIES
  // subquery over another dataset (a semi-join) or over a nested collection.
  plan = ExpectFourWayParity(
      "SELECT VALUE len FROM $Messages m "
      "LET len = string_length(m.message) ORDER BY len, m.messageId", true);
  EXPECT_NE(plan.find("project:[message,messageId]"), std::string::npos)
      << plan;
  plan = ExpectFourWayParity(
      "SELECT VALUE u.id FROM $Users u WHERE SOME m IN $Messages SATISFIES "
      "m.authorId = u.id AND m.inResponseTo IS NOT NULL ORDER BY u.id", true);
  EXPECT_NE(plan.find("project:[authorId,inResponseTo]"), std::string::npos)
      << plan;
  ExpectFourWayParity(
      "SELECT VALUE u.alias FROM $Users u "
      "WHERE SOME f IN u.friendIds SATISFIES f < 5 ORDER BY u.alias", true);
  // Index searches fetch projected records too: primary lookup, secondary
  // B+tree, R-tree and keyword paths (records deleted in memory excluded).
  plan = ExpectFourWayParity(
      "SELECT VALUE m.authorId FROM $Messages m WHERE m.messageId = 45", true);
  EXPECT_NE(plan.find("index-search[primary-lookup] RowMessages -> $"),
            std::string::npos) << plan;
  EXPECT_NE(plan.find("project:[authorId,messageId]"), std::string::npos)
      << plan;
  ExpectFourWayParity(
      "SELECT VALUE m.messageId FROM $Messages m WHERE m.messageId >= 5 "
      "AND m.messageId < 60 ORDER BY m.messageId", true);
  plan = ExpectFourWayParity(
      "SELECT m.messageId, m.message FROM $Messages m WHERE m.authorId = 3 "
      "ORDER BY m.messageId", true);
  EXPECT_NE(plan.find("btree-search"), std::string::npos) << plan;
  ExpectFourWayParity(
      "SELECT VALUE m.messageId FROM $Messages m WHERE "
      "spatial_intersect(m.senderLocation, "
      "create_rectangle(create_point(0.0, 0.0), create_point(40.0, 40.0))) "
      "ORDER BY m.messageId", true);
  ExpectFourWayParity(
      "SELECT VALUE m.messageId FROM $Messages m "
      "WHERE ftcontains(m.message, \"word1\") ORDER BY m.messageId", true);
  // Nested object field over the 10-field records.
  LoadBoth(60);
  ExpectFourWayParity(
      "SELECT VALUE u.addr.zip FROM $Ds u WHERE u.age > 20 ORDER BY u.id",
      true);
}

TEST_F(ParityTest, RejectsBadWithProps) {
  Exec("CREATE TYPE T2 AS OPEN { id: int }");
  auto bad1 = instance_->Execute(
      "CREATE DATASET X(T2) PRIMARY KEY id WITH { \"storage-format\" : "
      "\"parquet\" }");
  EXPECT_FALSE(bad1.ok());
  auto bad2 = instance_->Execute(
      "CREATE DATASET X(T2) PRIMARY KEY id WITH { \"compression\" : "
      "\"lz4\" }");
  EXPECT_FALSE(bad2.ok());
  auto ok = instance_->Execute(
      "CREATE DATASET X(T2) PRIMARY KEY id WITH { \"storage-format\" : "
      "\"row\" }");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace asterix
