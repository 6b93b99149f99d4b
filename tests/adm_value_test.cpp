// Unit tests for the ADM value model: construction, comparison, hashing,
// field semantics (MISSING vs NULL), and text rendering.
#include <gtest/gtest.h>

#include "adm/value.h"

namespace asterix::adm {
namespace {

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
}

TEST(AdmValue, CopyIsShallowAndSafe) {
  Value a = ObjectBuilder().Add("xs", Value::Array({Value::Int(1)})).Build();
  Value b = a;
  EXPECT_EQ(a, b);
  a = Value::Int(0);  // reassigning one copy leaves the other intact
  EXPECT_TRUE(b.is_object());
  EXPECT_EQ(b.GetField("xs").items().size(), 1u);
}

}  // namespace
}  // namespace asterix::adm
