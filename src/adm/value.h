// ADM (Asterix Data Model) values: JSON extended with the database-oriented
// modeling features the paper describes in Section III — multisets in
// addition to lists, temporal types (date/time/datetime/duration), simple
// spatial types (point/rectangle), and distinct NULL vs MISSING semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace asterix::adm {

/// Runtime type tag of an ADM value. The enum order defines the cross-type
/// total order used by comparisons and index key encoding (with the single
/// exception that kInt64 and kDouble compare numerically against each other).
enum class TypeTag : uint8_t {
  kMissing = 0,
  kNull = 1,
  kBoolean = 2,
  kInt64 = 3,
  kDouble = 4,
  kString = 5,
  kDate = 6,      // days since 1970-01-01
  kTime = 7,      // milliseconds since midnight
  kDatetime = 8,  // milliseconds since epoch
  kDuration = 9,  // milliseconds
  kPoint = 10,
  kRectangle = 11,
  kArray = 12,     // ordered list  [ ... ]
  kMultiset = 13,  // unordered bag {{ ... }}
  kObject = 14,
};

/// Human-readable tag name ("int64", "object", ...).
const char* TypeTagName(TypeTag tag);

/// 2-D point, the paper's "simple (Googlemap style) spatial" primitive.
struct Point {
  double x = 0;
  double y = 0;
  bool operator==(const Point&) const = default;
};

/// Axis-aligned rectangle (lo = bottom-left, hi = top-right).
struct Rectangle {
  Point lo;
  Point hi;
  bool operator==(const Rectangle&) const = default;
  bool Intersects(const Rectangle& o) const {
    return lo.x <= o.hi.x && o.lo.x <= hi.x && lo.y <= o.hi.y && o.lo.y <= hi.y;
  }
  bool Contains(const Point& p) const {
    return lo.x <= p.x && p.x <= hi.x && lo.y <= p.y && p.y <= hi.y;
  }
};

class Value;
/// An object's fields, kept sorted by field name for canonical comparison.
using FieldVec = std::vector<std::pair<std::string, Value>>;

/// An immutable ADM value in 16 bytes: a type tag and one 8-byte word.
/// Missing, null, boolean, int, double and the temporals live in the word.
/// String, point, rectangle, collection and object payloads live in one
/// heap block the word points at; copies share that block through an
/// intrusive atomic reference count, so copying is cheap and a shared value
/// may be copied and read from any number of threads. Values form a total
/// order (Compare) and hash consistently with that order, which the storage
/// and runtime layers rely on for indexing, sorting and hashing.
class Value {
 public:
  /// Default-constructed value is MISSING.
  Value() noexcept : tag_(TypeTag::kMissing), word_{.i64 = 0} {}
  Value(const Value& o) noexcept : tag_(o.tag_), word_(o.word_) {
    // Relaxed: the new reference is made from a live one, so the block
    // cannot be freed meanwhile and nothing else needs ordering.
    if (OnHeap(tag_)) {
      word_.block->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Leaves `o` MISSING.
  Value(Value&& o) noexcept : tag_(o.tag_), word_(o.word_) {
    o.tag_ = TypeTag::kMissing;
  }
  Value& operator=(const Value& o) noexcept {
    Value copy(o);
    return *this = std::move(copy);
  }
  /// Leaves `o` MISSING (unless it is `*this`).
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      Release();
      tag_ = o.tag_;
      word_ = o.word_;
      o.tag_ = TypeTag::kMissing;
    }
    return *this;
  }
  ~Value() { Release(); }

  // ---- constructors -------------------------------------------------------
  static Value Missing() { return Value(); }
  static Value Null() { return Scalar(TypeTag::kNull, 0); }
  static Value Boolean(bool b) { return Scalar(TypeTag::kBoolean, b ? 1 : 0); }
  static Value Int(int64_t v) { return Scalar(TypeTag::kInt64, v); }
  static Value Double(double v) {
    Value out;
    out.tag_ = TypeTag::kDouble;
    out.word_.dbl = v;
    return out;
  }
  static Value String(std::string s);
  static Value Date(int64_t days) { return Scalar(TypeTag::kDate, days); }
  static Value Time(int64_t ms) { return Scalar(TypeTag::kTime, ms); }
  static Value Datetime(int64_t ms) { return Scalar(TypeTag::kDatetime, ms); }
  static Value Duration(int64_t ms) { return Scalar(TypeTag::kDuration, ms); }
  static Value MakePoint(double x, double y);
  static Value MakeRectangle(Point lo, Point hi);
  static Value Array(std::vector<Value> items);
  static Value Multiset(std::vector<Value> items);
  /// Builds an object; fields are sorted by name, later duplicates win.
  static Value Object(FieldVec fields);

  // ---- inspectors ---------------------------------------------------------
  TypeTag tag() const { return tag_; }
  bool is_missing() const { return tag_ == TypeTag::kMissing; }
  bool is_null() const { return tag_ == TypeTag::kNull; }
  bool is_unknown() const { return is_missing() || is_null(); }
  bool is_boolean() const { return tag_ == TypeTag::kBoolean; }
  bool is_int() const { return tag_ == TypeTag::kInt64; }
  bool is_double() const { return tag_ == TypeTag::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return tag_ == TypeTag::kString; }
  bool is_temporal() const {
    return tag_ == TypeTag::kDate || tag_ == TypeTag::kTime ||
           tag_ == TypeTag::kDatetime || tag_ == TypeTag::kDuration;
  }
  bool is_point() const { return tag_ == TypeTag::kPoint; }
  bool is_rectangle() const { return tag_ == TypeTag::kRectangle; }
  bool is_array() const { return tag_ == TypeTag::kArray; }
  bool is_multiset() const { return tag_ == TypeTag::kMultiset; }
  bool is_collection() const { return is_array() || is_multiset(); }
  bool is_object() const { return tag_ == TypeTag::kObject; }

  /// Raw accessors; valid only for the matching tag.
  bool AsBool() const { return word_.i64 != 0; }
  int64_t AsInt() const { return word_.i64; }
  double AsDoubleExact() const { return word_.dbl; }
  /// Numeric value promoted to double (valid for kInt64/kDouble).
  double AsNumber() const {
    return tag_ == TypeTag::kInt64 ? static_cast<double>(word_.i64) : word_.dbl;
  }
  /// Raw temporal payload (days or ms depending on tag).
  int64_t TemporalValue() const { return word_.i64; }
  const std::string& AsString() const { return Payload<std::string>(); }
  Point AsPoint() const { return Payload<Point>(); }
  Rectangle AsRectangle() const { return Payload<Rectangle>(); }
  const std::vector<Value>& items() const;
  const FieldVec& fields() const;

  /// Field lookup by name; returns MISSING when absent (ADM semantics).
  const Value& GetField(const std::string& name) const;
  /// True if the object has the named field.
  bool HasField(const std::string& name) const;

  /// Minimal bounding rectangle of a point or rectangle value.
  Rectangle Mbr() const;

  // ---- algebra ------------------------------------------------------------
  /// Total-order comparison: negative/zero/positive. Numbers compare
  /// numerically across kInt64/kDouble; otherwise differing tags compare by
  /// tag. Collections compare lexicographically (multisets as sorted bags),
  /// objects by their sorted field vectors.
  int Compare(const Value& other) const;
  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Hash consistent with Compare (equal values hash equal).
  uint64_t Hash() const;

  /// In-memory footprint, used for operator memory budgeting: the 16-byte
  /// value plus, for a heap tag, its whole block (header included) and the
  /// block's contents.
  size_t ByteSize() const;

  /// Render in ADM text syntax (JSON extended with typed constructors,
  /// e.g. datetime("2017-01-01T00:00:00.000Z"), {{ ... }} for multisets).
  std::string ToString() const;

 private:
  /// Header of a heap payload: the count of values sharing it.
  struct Block {
    std::atomic<uint64_t> refs{1};
  };
  template <typename T>
  struct Boxed : Block {
    explicit Boxed(T v) : data(std::move(v)) {}
    T data;
  };
  union Word {
    int64_t i64;  // ints, booleans, temporals
    double dbl;
    Block* block;  // heap tags only
  };

  // String and every tag from kPoint on (see the TypeTag order).
  static constexpr bool OnHeap(TypeTag tag) {
    return tag == TypeTag::kString || tag >= TypeTag::kPoint;
  }
  static Value Scalar(TypeTag tag, int64_t v) {
    Value out;
    out.tag_ = tag;
    out.word_.i64 = v;
    return out;
  }
  template <typename T>
  static Value Box(TypeTag tag, T data) {
    Value out;
    out.tag_ = tag;
    out.word_.block = new Boxed<T>(std::move(data));
    return out;
  }
  template <typename T>
  const T& Payload() const {
    return static_cast<const Boxed<T>*>(word_.block)->data;
  }
  void Release() noexcept {
    // acq_rel: the last owner must see every other owner's reads of the
    // payload finish before it deletes the block.
    if (OnHeap(tag_) &&
        word_.block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy();
    }
  }
  void Destroy() noexcept;

  TypeTag tag_;
  Word word_;
};

inline const std::vector<Value>& Value::items() const {
  return Payload<std::vector<Value>>();
}
inline const FieldVec& Value::fields() const { return Payload<FieldVec>(); }

/// Convenience helpers for building objects in C++ call sites.
class ObjectBuilder {
 public:
  ObjectBuilder& Add(std::string name, Value v) {
    fields_.emplace_back(std::move(name), std::move(v));
    return *this;
  }
  Value Build() { return Value::Object(std::move(fields_)); }

 private:
  FieldVec fields_;
};

}  // namespace asterix::adm
