// Unit tests for the ADM value model: construction, comparison, hashing,
// field semantics (MISSING vs NULL), text rendering, and the 16-byte
// representation's sharing, ownership and thread-safety.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::adm {
namespace {

static_assert(sizeof(Value) == 16, "Value is a tag plus one 8-byte word");
static_assert(sizeof(Status) == sizeof(void*), "OK Status is a null pointer");
static_assert(sizeof(Result<Value>) <= 32, "Result<Value> stays small");

TEST(AdmValue, Sizes) {
  EXPECT_EQ(sizeof(Value), 16u);
  EXPECT_EQ(sizeof(Status), sizeof(void*));
  EXPECT_LE(sizeof(Result<Value>), 32u);
}

TEST(AdmValue, DefaultIsMissing) {
  Value v;
  EXPECT_TRUE(v.is_missing());
  EXPECT_TRUE(v.is_unknown());
  EXPECT_FALSE(v.is_null());
}

TEST(AdmValue, NullVsMissingDistinct) {
  EXPECT_NE(Value::Null().tag(), Value::Missing().tag());
  EXPECT_NE(Value::Null(), Value::Missing());
  EXPECT_TRUE(Value::Null().is_unknown());
}

TEST(AdmValue, ScalarAccessors) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDoubleExact(), 2.5);
  EXPECT_EQ(Value::Boolean(true).AsBool(), true);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Datetime(1000).TemporalValue(), 1000);
}

TEST(AdmValue, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int(3)), 0);
}

TEST(AdmValue, NumericCrossTypeHashConsistency) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  // Past 2^53 an int still equals the double it converts to.
  const int64_t big = (int64_t{1} << 60) + 1;
  ASSERT_EQ(Value::Int(big).Compare(Value::Double(static_cast<double>(big))),
            0);
  EXPECT_EQ(Value::Int(big).Hash(),
            Value::Double(static_cast<double>(big)).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
}

TEST(AdmValue, TagOrderAcrossTypes) {
  // missing < null < boolean < numbers < string < temporals < spatial < ...
  EXPECT_LT(Value::Missing().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Boolean(false)), 0);
  EXPECT_LT(Value::Boolean(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(1 << 30).Compare(Value::String("")), 0);
  EXPECT_LT(Value::String("zzz").Compare(Value::Date(0)), 0);
}

TEST(AdmValue, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
}

TEST(AdmValue, ArraysCompareLexicographically) {
  Value a = Value::Array({Value::Int(1), Value::Int(2)});
  Value b = Value::Array({Value::Int(1), Value::Int(3)});
  Value c = Value::Array({Value::Int(1)});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_LT(c.Compare(a), 0);
  EXPECT_EQ(a.Compare(Value::Array({Value::Int(1), Value::Int(2)})), 0);
}

TEST(AdmValue, MultisetsAreOrderInsensitive) {
  Value a = Value::Multiset({Value::Int(1), Value::Int(2), Value::Int(2)});
  Value b = Value::Multiset({Value::Int(2), Value::Int(1), Value::Int(2)});
  Value c = Value::Multiset({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
}

TEST(AdmValue, ArrayAndMultisetDiffer) {
  Value arr = Value::Array({Value::Int(1)});
  Value bag = Value::Multiset({Value::Int(1)});
  EXPECT_NE(arr, bag);
}

TEST(AdmValue, ObjectFieldLookup) {
  Value obj = ObjectBuilder()
                  .Add("name", Value::String("ann"))
                  .Add("id", Value::Int(7))
                  .Build();
  EXPECT_EQ(obj.GetField("id").AsInt(), 7);
  EXPECT_EQ(obj.GetField("name").AsString(), "ann");
  EXPECT_TRUE(obj.GetField("nope").is_missing());
  EXPECT_TRUE(obj.HasField("id"));
  EXPECT_FALSE(obj.HasField("nope"));
}

TEST(AdmValue, ObjectFieldOrderCanonical) {
  Value a = ObjectBuilder().Add("a", Value::Int(1)).Add("b", Value::Int(2)).Build();
  Value b = ObjectBuilder().Add("b", Value::Int(2)).Add("a", Value::Int(1)).Build();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(AdmValue, DuplicateFieldLastWins) {
  Value v = ObjectBuilder().Add("x", Value::Int(1)).Add("x", Value::Int(2)).Build();
  EXPECT_EQ(v.GetField("x").AsInt(), 2);
  EXPECT_EQ(v.fields().size(), 1u);
}

TEST(AdmValue, PointAndRectangle) {
  Value p = Value::MakePoint(1.5, -2.5);
  EXPECT_EQ(p.AsPoint().x, 1.5);
  EXPECT_EQ(p.AsPoint().y, -2.5);
  Value r = Value::MakeRectangle({0, 0}, {10, 10});
  EXPECT_TRUE(r.AsRectangle().Contains({5, 5}));
  EXPECT_FALSE(r.AsRectangle().Contains({11, 5}));
  EXPECT_TRUE(r.AsRectangle().Intersects(Rectangle{{9, 9}, {12, 12}}));
  EXPECT_FALSE(r.AsRectangle().Intersects(Rectangle{{11, 11}, {12, 12}}));
  // A point's MBR is the degenerate rectangle at the point.
  Rectangle mbr = p.Mbr();
  EXPECT_EQ(mbr.lo, p.AsPoint());
  EXPECT_EQ(mbr.hi, p.AsPoint());
}

TEST(AdmValue, ToStringRendersAdmSyntax) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Boolean(false).ToString(), "false");
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Missing().ToString(), "missing");
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Array({Value::Int(1), Value::Int(2)}).ToString(), "[1,2]");
  EXPECT_EQ(Value::Multiset({Value::Int(1)}).ToString(), "{{1}}");
  Value obj = ObjectBuilder().Add("id", Value::Int(1)).Build();
  EXPECT_EQ(obj.ToString(), "{\"id\":1}");
  EXPECT_EQ(Value::Datetime(0).ToString(),
            "datetime(\"1970-01-01T00:00:00.000Z\")");
}

TEST(AdmValue, ByteSizeGrowsWithContent) {
  EXPECT_GT(Value::String(std::string(100, 'x')).ByteSize(),
            Value::String("x").ByteSize());
  Value small = Value::Array({Value::Int(1)});
  Value big = Value::Array({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  Value one = ObjectBuilder().Add("a", Value::Int(1)).Build();
  Value two =
      ObjectBuilder().Add("a", Value::Int(1)).Add("b", Value::Int(2)).Build();
  EXPECT_GT(two.ByteSize(), one.ByteSize());
}

TEST(AdmValue, ByteSizeCountsTheHeapBlock) {
  // Inline tags are exactly the 16-byte word.
  EXPECT_EQ(Value::Int(1).ByteSize(), sizeof(Value));
  EXPECT_EQ(Value::Datetime(1).ByteSize(), sizeof(Value));
  // A heap tag also pays for its block header and payload object, on top of
  // its content bytes, so budgets never see less than is really held.
  EXPECT_GE(Value::String("").ByteSize(),
            sizeof(Value) + sizeof(uint64_t) + sizeof(std::string));
  EXPECT_GE(Value::String(std::string(100, 'x')).ByteSize(),
            sizeof(Value) + sizeof(std::string) + 100);
  EXPECT_GT(Value::MakePoint(1, 2).ByteSize(), sizeof(Value) + sizeof(Point));
  EXPECT_GT(Value::MakeRectangle({0, 0}, {1, 1}).ByteSize(),
            sizeof(Value) + sizeof(Rectangle));
  Value arr = Value::Array({Value::Int(1), Value::Int(2)});
  EXPECT_GE(arr.ByteSize(),
            sizeof(Value) + sizeof(std::vector<Value>) + 2 * sizeof(Value));
  Value obj = ObjectBuilder().Add("name", Value::String("x")).Build();
  EXPECT_GE(obj.ByteSize(), sizeof(Value) + sizeof(FieldVec) +
                                sizeof(std::string) + 4 +
                                Value::String("x").ByteSize());
}

TEST(AdmValue, CopyIsShallowAndSafe) {
  Value a = ObjectBuilder().Add("xs", Value::Array({Value::Int(1)})).Build();
  Value b = a;
  EXPECT_EQ(a, b);
  a = Value::Int(0);  // reassigning one copy leaves the other intact
  EXPECT_TRUE(b.is_object());
  EXPECT_EQ(b.GetField("xs").items().size(), 1u);
}

// One value of every tag that lives in a heap block.
std::vector<Value> HeapValues() {
  return {
      Value::String("a string long enough to leave the SSO buffer"),
      Value::MakePoint(1.5, -2.5),
      Value::MakeRectangle({0, 0}, {3, 4}),
      Value::Array({Value::Int(1), Value::String("two")}),
      Value::Multiset({Value::Int(3), Value::Int(1)}),
      ObjectBuilder()
          .Add("id", Value::Int(7))
          .Add("tags", Value::Array({Value::String("x")}))
          .Build(),
  };
}

// Address of the payload a heap value refers to, for checking sharing.
const void* PayloadAddress(const Value& v) {
  switch (v.tag()) {
    case TypeTag::kString: return &v.AsString();
    case TypeTag::kArray:
    case TypeTag::kMultiset: return &v.items();
    case TypeTag::kObject: return &v.fields();
    default: return nullptr;
  }
}

TEST(AdmValue, CopySharesThePayload) {
  for (const Value& v : HeapValues()) {
    SCOPED_TRACE(TypeTagName(v.tag()));
    Value copy = v;
    EXPECT_EQ(copy, v);
    EXPECT_EQ(copy.Hash(), v.Hash());
    EXPECT_EQ(PayloadAddress(copy), PayloadAddress(v));
  }
}

TEST(AdmValue, SelfAssignmentKeepsTheValue) {
  for (const Value& v : HeapValues()) {
    SCOPED_TRACE(TypeTagName(v.tag()));
    Value a = v;
    Value& alias = a;
    a = alias;
    EXPECT_EQ(a, v);
    a = std::move(alias);
    EXPECT_EQ(a, v);
    EXPECT_EQ(PayloadAddress(a), PayloadAddress(v));
  }
}

TEST(AdmValue, MovedFromIsMissing) {
  for (const Value& v : HeapValues()) {
    SCOPED_TRACE(TypeTagName(v.tag()));
    Value a = v;
    Value b = std::move(a);
    EXPECT_TRUE(a.is_missing());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b, v);
    Value c;
    c = std::move(b);
    EXPECT_TRUE(b.is_missing());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c, v);
  }
  Value i = Value::Int(5);
  Value j = std::move(i);
  EXPECT_TRUE(i.is_missing());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(j.AsInt(), 5);
}

TEST(AdmValue, AssigningOverAHeapValueReleasesIt) {
  // The only other owner of each payload is `keep`; after the overwrite the
  // sanitizer builds see no leak, and the survivor still reads correctly.
  for (const Value& v : HeapValues()) {
    SCOPED_TRACE(TypeTagName(v.tag()));
    std::string text = v.ToString();
    Value keep = v;
    Value victim = keep;
    victim = Value::Int(1);  // copy-assign over a heap value
    EXPECT_EQ(victim.AsInt(), 1);
    victim = keep;
    victim = Value::String("other");  // move-assign over a heap value
    EXPECT_EQ(victim.AsString(), "other");
    EXPECT_EQ(keep.ToString(), text);
    Value sole = Value::Array({keep});
    sole = Value::Null();  // drops the last reference to the array block
    EXPECT_TRUE(sole.is_null());
    EXPECT_EQ(keep.ToString(), text);
  }
}

TEST(AdmValue, SharedValueHammeredFromFourThreads) {
  // One nested object shared by every thread: each copies it, reads and
  // hashes the copies and drops them, so the reference counts of the
  // object, array and string blocks are bumped and released concurrently.
  const Value shared =
      ObjectBuilder()
          .Add("name", Value::String("a name that does not fit in SSO"))
          .Add("xs", Value::Array({Value::Int(1), Value::String("two"),
                                   Value::MakePoint(3, 4)}))
          .Add("ys", Value::Multiset({Value::Double(0.5)}))
          .Build();
  const uint64_t want = shared.Hash();
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; i++) {
        Value copy = shared;
        std::vector<Value> parts = {copy.GetField("name"), copy.GetField("xs"),
                                    copy};
        Value moved = std::move(parts.back());
        if (moved.Hash() != want) mismatches[t]++;
        if (parts[1].items()[1].AsString() != "two") mismatches[t]++;
        copy = parts[0];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
  EXPECT_EQ(shared.Hash(), want);
}

TEST(Status, OkIsEmptyAndErrorsCopyDeep) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.message(), "");
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::NotFound("key 7");
  Status copy = err;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), "key 7");
  EXPECT_NE(&copy.message(), &err.message());  // its own state, not shared
  copy = Status::Corruption("bad page");
  EXPECT_TRUE(err.IsNotFound());
  EXPECT_EQ(err.ToString(), "NotFound: key 7");
  Status& alias = copy;
  copy = alias;  // self-assignment keeps the state
  EXPECT_EQ(copy.ToString(), "Corruption: bad page");
  copy = ok;
  EXPECT_TRUE(copy.ok());

  Result<Value> failed = Status::IOError("disk");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "disk");
  Result<Value> good = Value::String("v");
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good->AsString(), "v");
}

TEST(AdmValue, StringCompareSign) {
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abd")), -1);
  EXPECT_EQ(Value::String("abd").Compare(Value::String("abc")), 1);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
  EXPECT_EQ(Value::String("ab").Compare(Value::String("abc")), -1);
}

}  // namespace
}  // namespace asterix::adm
