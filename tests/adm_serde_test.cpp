// Tests for ADM serialization, the text parser, the order-preserving key
// encoding, temporal parsing, and the type system. Heavy on property-style
// round-trip sweeps, including the projected decoder's equivalence with
// full decode on generated and corrupted inputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "adm/json.h"
#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "adm/temporal.h"
#include "adm/type.h"
#include "asterix/gleambook.h"
#include "common/rng.h"

namespace asterix::adm {
namespace {

// Random ADM value generator for property tests.
Value RandomValue(Rng* rng, int depth) {
  int pick = static_cast<int>(rng->Uniform(depth > 0 ? 12 : 9));
  switch (pick) {
    case 0: return Value::Null();
    case 1: return Value::Boolean(rng->Uniform(2) == 0);
    case 2: return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3: return Value::Double(rng->NextDouble() * 1e6 - 5e5);
    case 4: return Value::String(rng->NextString(rng->Uniform(40)));
    case 5: return Value::Datetime(static_cast<int64_t>(rng->Next() % (1ll << 40)));
    case 6: return Value::Date(static_cast<int64_t>(rng->Uniform(40000)));
    case 7: return Value::MakePoint(rng->NextDouble() * 100, rng->NextDouble() * 100);
    case 8:
      return Value::MakeRectangle({0, 0},
                                  {rng->NextDouble() * 10, rng->NextDouble() * 10});
    case 9: {
      std::vector<Value> items;
      for (uint64_t i = 0; i < rng->Uniform(4); i++) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Array(std::move(items));
    }
    case 10: {
      std::vector<Value> items;
      for (uint64_t i = 0; i < rng->Uniform(4); i++) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Multiset(std::move(items));
    }
    default: {
      FieldVec fields;
      for (uint64_t i = 0; i < rng->Uniform(4); i++) {
        std::string name = "f";
        name.append(std::to_string(i));
        fields.emplace_back(std::move(name), RandomValue(rng, depth - 1));
      }
      return Value::Object(std::move(fields));
    }
  }
}

TEST(Serde, RoundTripsRandomValues) {
  Rng rng(77);
  for (int i = 0; i < 500; i++) {
    Value v = RandomValue(&rng, 3);
    auto back = Deserialize(Serialize(v));
    ASSERT_TRUE(back.ok()) << v.ToString();
    EXPECT_EQ(v, back.value()) << v.ToString();
  }
}

TEST(Serde, RejectsTruncatedBuffers) {
  Value v = Value::String("hello world");
  std::string data = Serialize(v);
  for (size_t cut = 0; cut < data.size(); cut++) {
    EXPECT_FALSE(Deserialize(data.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(Deserialize(data + "x").ok());  // trailing bytes
}

TEST(Serde, VarintRoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{300}, uint64_t{1} << 20, uint64_t{1} << 40,
                     UINT64_MAX}) {
    std::string buf;
    PutVarint(v, &buf);
    size_t pos = 0;
    EXPECT_EQ(GetVarint(buf, &pos).value(), v);
    EXPECT_EQ(pos, buf.size());
  }
}

// ---- projected decode --------------------------------------------------------

// `v` with every top-level field not named in `keep` (sorted) removed;
// non-objects are returned as they are.
Value Pruned(const Value& v, const std::vector<std::string>& keep) {
  if (!v.is_object()) return v;
  FieldVec out;
  for (const auto& [name, fv] : v.fields()) {
    if (std::binary_search(keep.begin(), keep.end(), name)) {
      out.emplace_back(name, fv);
    }
  }
  return Value::Object(std::move(out));
}

// A record over a small field-name pool, so projections hit both present and
// absent names. Field values span every tag, MISSING and empty objects
// included, nested to `depth`.
Value RandomRecord(Rng* rng, int depth) {
  static const char* kNames[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  FieldVec fields;
  for (const char* name : kNames) {
    if (rng->Uniform(3) == 0) continue;
    Value v;
    switch (rng->Uniform(8)) {
      case 0: v = Value::Missing(); break;
      case 1: v = Value::Time(static_cast<int64_t>(rng->Uniform(86400000))); break;
      case 2: v = Value::Duration(static_cast<int64_t>(rng->Next() % 100000) - 50000); break;
      case 3: v = Value::Object({}); break;
      case 4: v = depth > 0 ? RandomRecord(rng, depth - 1) : Value::Null(); break;
      default: v = RandomValue(rng, depth); break;
    }
    fields.emplace_back(name, std::move(v));
  }
  return Value::Object(std::move(fields));
}

TEST(SerdeProjected, EqualsFullDecodePruned) {
  const std::vector<std::vector<std::string>> projections = {
      {},                     // COUNT(*): nothing built
      {"a"},
      {"b", "h"},
      {"a", "c", "e", "zz"},  // "zz" is never present
      {"missing_only"},
      {"a", "b", "c", "d", "e", "f", "g", "h"},
  };
  Rng rng(2024);
  for (int i = 0; i < 400; i++) {
    Value rec = RandomRecord(&rng, 2);
    std::string raw = Serialize(rec);
    Value full = Deserialize(raw).value();
    for (const auto& keep : projections) {
      uint64_t skipped = 0;
      auto proj = DeserializeProjected(raw, keep, &skipped);
      ASSERT_TRUE(proj.ok()) << rec.ToString();
      Value want = Pruned(full, keep);
      EXPECT_EQ(proj.value(), want) << rec.ToString();
      EXPECT_EQ(proj->fields().size(), want.fields().size());
      EXPECT_EQ(skipped, full.fields().size() - want.fields().size());
    }
  }
  // The empty object, and non-object values, which decode whole.
  for (const Value& v :
       {Value::Object({}), Value::Null(), Value::Missing(), Value::Int(-7),
        Value::MakePoint(1, 2), Value::Array({Value::Int(1)}),
        Value::Multiset({Value::String("x")})}) {
    uint64_t skipped = 0;
    auto proj = DeserializeProjected(Serialize(v), {"a"}, &skipped);
    ASSERT_TRUE(proj.ok()) << v.ToString();
    EXPECT_EQ(proj.value(), v);
    EXPECT_EQ(skipped, 0u);
  }
}

TEST(SerdeProjected, RecordDecoderSortsAndTallies) {
  Value rec = ObjectBuilder()
                  .Add("id", Value::Int(1))
                  .Add("name", Value::String("n"))
                  .Add("tags", Value::Array({Value::String("t")}))
                  .Build();
  std::string raw = Serialize(rec);
  // Unsorted with a duplicate: the decoder normalizes the field set.
  RecordDecoder projected({"tags", "id", "tags"}, /*projected=*/true);
  Value got = projected.Decode(raw).value();
  EXPECT_EQ(got, Pruned(rec, {"id", "tags"}));
  RecordDecoder whole;
  EXPECT_EQ(whole.Decode(raw).value(), rec);
  RecordDecoder not_pushed({"id"}, /*projected=*/false);
  EXPECT_EQ(not_pushed.Decode(raw).value(), rec);
}

// Every truncation and every single-byte change of a serialized Gleambook
// message: the projected decode must fail exactly when the full decode does,
// with the same Corruption, and otherwise agree with it.
TEST(SerdeProjected, CorruptionMatchesFullDecode) {
  gleambook::GeneratorOptions opts;
  gleambook::Generator gen(opts);
  const std::string raw = Serialize(gen.MakeMessage(17));
  const Value full = Deserialize(raw).value();
  ASSERT_TRUE(full.is_object());
  std::vector<std::vector<std::string>> projections = {{}, {"message"}};
  std::vector<std::string> all;
  for (const auto& [name, v] : full.fields()) all.push_back(name);
  projections.push_back({all.front(), all.back()});
  projections.push_back(all);

  size_t failures = 0;
  auto check = [&](const std::string& bytes, const std::string& what) {
    auto want = Deserialize(bytes);
    if (!want.ok()) {
      failures++;
      ASSERT_EQ(want.status().code(), StatusCode::kCorruption) << what;
    }
    for (const auto& keep : projections) {
      auto got = DeserializeProjected(bytes, keep);
      ASSERT_EQ(got.ok(), want.ok()) << what;
      if (want.ok()) {
        EXPECT_EQ(got.value(), Pruned(want.value(), keep)) << what;
      } else {
        EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
      }
    }
  };
  for (size_t cut = 0; cut < raw.size(); cut++) {
    check(raw.substr(0, cut), "truncated to " + std::to_string(cut));
  }
  check(raw + "x", "trailing byte");
  for (size_t i = 0; i < raw.size(); i++) {
    for (int mask = 1; mask < 256; mask++) {
      std::string bytes = raw;
      bytes[i] = static_cast<char>(bytes[i] ^ mask);
      check(bytes, "byte " + std::to_string(i) + " ^ " + std::to_string(mask));
    }
  }
  EXPECT_GT(failures, raw.size());  // the sweep did reach the error paths
}

// The canonical-input fast path in Value::Object must not change results:
// reference is the stable sort + last-duplicate-wins rule.
TEST(ValueObject, SortedUnsortedAndDuplicateInput) {
  auto reference = [](FieldVec in) {
    std::stable_sort(in.begin(), in.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    FieldVec out;
    for (auto& f : in) {
      if (!out.empty() && out.back().first == f.first) {
        out.back().second = f.second;
      } else {
        out.push_back(f);
      }
    }
    return out;
  };
  auto same = [](const FieldVec& a, const FieldVec& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); i++) {
      if (a[i].first != b[i].first || a[i].second != b[i].second) return false;
      if (a[i].second.tag() != b[i].second.tag()) return false;
    }
    return true;
  };
  const std::vector<FieldVec> inputs = {
      {},
      {{"a", Value::Int(1)}, {"b", Value::Int(2)}, {"c", Value::Int(3)}},
      {{"c", Value::Int(3)}, {"a", Value::Int(1)}, {"b", Value::Int(2)}},
      {{"a", Value::Int(1)}, {"a", Value::Int(2)}},
      {{"b", Value::Int(1)}, {"a", Value::Int(2)}, {"b", Value::Double(3)}},
      {{"a", Value::Int(1)}, {"b", Value::Int(2)}, {"b", Value::Null()}},
  };
  for (const auto& in : inputs) {
    Value v = Value::Object(in);
    EXPECT_TRUE(same(v.fields(), reference(in))) << v.ToString();
  }
  Rng rng(5);
  for (int i = 0; i < 300; i++) {
    FieldVec in;
    for (uint64_t k = rng.Uniform(6); k > 0; k--) {
      in.emplace_back(std::string(1, static_cast<char>('a' + rng.Uniform(4))),
                      Value::Int(static_cast<int64_t>(rng.Uniform(100))));
    }
    Value v = Value::Object(in);
    EXPECT_TRUE(same(v.fields(), reference(in))) << v.ToString();
  }
}

TEST(AdmText, ParsesAndPrintsRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 300; i++) {
    Value v = RandomValue(&rng, 3);
    if (v.is_missing()) continue;
    auto parsed = ParseAdm(v.ToString());
    ASSERT_TRUE(parsed.ok()) << v.ToString() << " -> "
                             << parsed.status().ToString();
    // Doubles may lose exactness in text; compare text forms instead.
    EXPECT_EQ(parsed->ToString(), v.ToString());
  }
}

TEST(AdmText, ParsesPlainJson) {
  auto v = ParseAdm(R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetField("a").items()[2].AsString(), "x");
  EXPECT_TRUE(v->GetField("b").GetField("d").is_null());
}

TEST(AdmText, ParsesExtendedSyntax) {
  auto v = ParseAdm(R"({"when": datetime("2024-01-02T03:04:05"),)"
                    R"( "ids": {{1, 2}}, "at": point("3.5,4.5")})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetField("when").tag(), TypeTag::kDatetime);
  EXPECT_TRUE(v->GetField("ids").is_multiset());
  EXPECT_EQ(v->GetField("at").AsPoint().x, 3.5);
}

TEST(AdmText, RejectsMalformed) {
  EXPECT_FALSE(ParseAdm("{").ok());
  EXPECT_FALSE(ParseAdm("[1,]").ok());
  EXPECT_FALSE(ParseAdm("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseAdm("datetime(\"not a date\")").ok());
  EXPECT_FALSE(ParseAdm("1 2").ok());
  EXPECT_FALSE(ParseAdm("{{1,2}").ok());
}

TEST(KeyEncoder, PreservesOrderForScalars) {
  Rng rng(11);
  std::vector<Value> values;
  for (int i = 0; i < 400; i++) {
    switch (rng.Uniform(5)) {
      case 0: values.push_back(Value::Int(static_cast<int64_t>(rng.Next()))); break;
      case 1: values.push_back(Value::Double(rng.NextDouble() * 2e6 - 1e6)); break;
      case 2: values.push_back(Value::String(rng.NextString(rng.Uniform(12)))); break;
      case 3: values.push_back(Value::Datetime(static_cast<int64_t>(rng.Next() % (1ll << 41)))); break;
      default: values.push_back(Value::Boolean(rng.Uniform(2) == 0));
    }
  }
  for (int i = 0; i < 3000; i++) {
    const Value& a = values[rng.Uniform(values.size())];
    const Value& b = values[rng.Uniform(values.size())];
    std::string ka = EncodeKey(a).value();
    std::string kb = EncodeKey(b).value();
    int vc = a.Compare(b);
    int kc = ka.compare(kb) < 0 ? -1 : (ka.compare(kb) > 0 ? 1 : 0);
    EXPECT_EQ(vc < 0, kc < 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(vc == 0, kc == 0) << a.ToString() << " vs " << b.ToString();
  }
}

TEST(KeyEncoder, IntDoubleCrossTypeOrder) {
  // 3 < 3.5 < 4 must hold in encoded space.
  auto k3 = EncodeKey(Value::Int(3)).value();
  auto k35 = EncodeKey(Value::Double(3.5)).value();
  auto k4 = EncodeKey(Value::Int(4)).value();
  EXPECT_LT(k3, k35);
  EXPECT_LT(k35, k4);
  // Very large int64s beyond double precision stay ordered.
  int64_t big = (1ll << 60) + 1;
  auto ka = EncodeKey(Value::Int(big)).value();
  auto kb = EncodeKey(Value::Int(big + 1)).value();
  EXPECT_LT(ka, kb);
}

TEST(KeyEncoder, StringsWithEmbeddedNulsAndEscapes) {
  std::string tricky1("a\0b", 3);
  std::string tricky2("a\0", 2);
  std::string tricky3 = "a";
  auto k1 = EncodeKey(Value::String(tricky1)).value();
  auto k2 = EncodeKey(Value::String(tricky2)).value();
  auto k3 = EncodeKey(Value::String(tricky3)).value();
  EXPECT_LT(k3, k2);
  EXPECT_LT(k2, k1);
  // Round trip.
  EXPECT_EQ(DecodeKey(k1).value()[0].AsString(), tricky1);
}

TEST(KeyEncoder, CompositeKeysRoundTrip) {
  std::vector<Value> parts = {Value::String("alice"), Value::Int(42),
                              Value::Datetime(1234567)};
  auto key = EncodeKey(parts).value();
  auto back = DecodeKey(key).value();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], parts[0]);
  EXPECT_EQ(back[1], parts[1]);
  EXPECT_EQ(back[2], parts[2]);
}

TEST(KeyEncoder, RejectsNonScalarKeys) {
  EXPECT_FALSE(EncodeKey(Value::Array({Value::Int(1)})).ok());
  EXPECT_FALSE(EncodeKey(Value::Object({})).ok());
}

TEST(Temporal, DateRoundTrip) {
  for (const char* s : {"1970-01-01", "2024-02-29", "1969-12-31", "2100-06-15"}) {
    int64_t days = temporal::ParseDate(s).value();
    EXPECT_EQ(temporal::FormatDate(days), s);
  }
  EXPECT_EQ(temporal::ParseDate("1970-01-02").value(), 1);
  EXPECT_EQ(temporal::ParseDate("1969-12-31").value(), -1);
  EXPECT_FALSE(temporal::ParseDate("2024-13-01").ok());
  EXPECT_FALSE(temporal::ParseDate("garbage").ok());
}

TEST(Temporal, DatetimeParsing) {
  EXPECT_EQ(temporal::ParseDatetime("1970-01-01T00:00:00").value(), 0);
  EXPECT_EQ(temporal::ParseDatetime("1970-01-01T00:00:01.5").value(), 1500);
  EXPECT_EQ(temporal::ParseDatetime("1970-01-02T00:00:00Z").value(), 86400000);
  EXPECT_FALSE(temporal::ParseDatetime("1970-01-01").ok());
}

TEST(Temporal, DurationParsing) {
  EXPECT_EQ(temporal::ParseDuration("P30D").value(), 30ll * 86400000);
  EXPECT_EQ(temporal::ParseDuration("PT1H30M").value(), 5400000);
  EXPECT_EQ(temporal::ParseDuration("PT0.5S").value(), 500);
  EXPECT_EQ(temporal::ParseDuration("P1W").value(), 7ll * 86400000);
  EXPECT_FALSE(temporal::ParseDuration("P1Y").ok());   // months/years rejected
  EXPECT_FALSE(temporal::ParseDuration("P1M").ok());
  EXPECT_FALSE(temporal::ParseDuration("30D").ok());
}

TEST(Temporal, IntervalBinAndOverlap) {
  // Bins anchored at 0, width 1 hour.
  EXPECT_EQ(temporal::IntervalBinStart(3600000 + 5, 0, 3600000), 3600000);
  EXPECT_EQ(temporal::IntervalBinStart(-1, 0, 3600000), -3600000);
  EXPECT_EQ(temporal::OverlapMs(0, 100, 50, 200), 50);
  EXPECT_EQ(temporal::OverlapMs(0, 100, 100, 200), 0);
  EXPECT_EQ(temporal::OverlapMs(0, 300, 100, 200), 100);
}

TEST(TypeSystem, OpenAndClosedValidation) {
  auto t = Type::MakeObject(
      "T",
      {{"id", Type::Primitive(TypeTag::kInt64), false},
       {"name", Type::Primitive(TypeTag::kString), true}},
      /*open=*/false);
  EXPECT_TRUE(t->Validate(ObjectBuilder()
                              .Add("id", Value::Int(1))
                              .Add("name", Value::String("x"))
                              .Build())
                  .ok());
  // Optional field may be absent.
  EXPECT_TRUE(t->Validate(ObjectBuilder().Add("id", Value::Int(1)).Build()).ok());
  // Required field missing.
  EXPECT_FALSE(t->Validate(ObjectBuilder().Add("name", Value::String("x")).Build()).ok());
  // Extra field on a closed type.
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("id", Value::Int(1))
                               .Add("zzz", Value::Int(2))
                               .Build())
                   .ok());
  // Wrong field type.
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("id", Value::String("nope"))
                               .Build())
                   .ok());
}

TEST(TypeSystem, IntPromotesToDouble) {
  auto t = Type::MakeObject(
      "T", {{"x", Type::Primitive(TypeTag::kDouble), false}}, true);
  EXPECT_TRUE(t->Validate(ObjectBuilder().Add("x", Value::Int(3)).Build()).ok());
  EXPECT_TRUE(
      t->Validate(ObjectBuilder().Add("x", Value::Double(3.5)).Build()).ok());
}

TEST(TypeSystem, NestedCollections) {
  auto t = Type::MakeObject(
      "T",
      {{"tags", Type::MakeArray(Type::Primitive(TypeTag::kString)), false}},
      true);
  EXPECT_TRUE(t->Validate(ObjectBuilder()
                              .Add("tags", Value::Array({Value::String("a")}))
                              .Build())
                  .ok());
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("tags", Value::Array({Value::Int(1)}))
                               .Build())
                   .ok());
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("tags", Value::Multiset({}))
                               .Build())
                   .ok());
}

}  // namespace
}  // namespace asterix::adm
