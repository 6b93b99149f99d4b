#include "adm/serde.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/metrics.h"

namespace asterix::adm {

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

namespace {
void PutFixed64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutDouble(double d, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  PutFixed64(bits, out);
}

// Zig-zag so small negative ints stay short.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}
}  // namespace

void SerializeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.tag()));
  switch (v.tag()) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
      return;
    case TypeTag::kBoolean:
      out->push_back(v.AsBool() ? 1 : 0);
      return;
    case TypeTag::kInt64:
      PutVarint(ZigZag(v.AsInt()), out);
      return;
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration:
      PutVarint(ZigZag(v.TemporalValue()), out);
      return;
    case TypeTag::kDouble:
      PutDouble(v.AsDoubleExact(), out);
      return;
    case TypeTag::kString: {
      const std::string& s = v.AsString();
      PutVarint(s.size(), out);
      out->append(s);
      return;
    }
    case TypeTag::kPoint: {
      Point p = v.AsPoint();
      PutDouble(p.x, out);
      PutDouble(p.y, out);
      return;
    }
    case TypeTag::kRectangle: {
      Rectangle r = v.AsRectangle();
      PutDouble(r.lo.x, out);
      PutDouble(r.lo.y, out);
      PutDouble(r.hi.x, out);
      PutDouble(r.hi.y, out);
      return;
    }
    case TypeTag::kArray:
    case TypeTag::kMultiset: {
      PutVarint(v.items().size(), out);
      for (const auto& item : v.items()) SerializeValue(item, out);
      return;
    }
    case TypeTag::kObject: {
      PutVarint(v.fields().size(), out);
      for (const auto& [name, fv] : v.fields()) {
        PutVarint(name.size(), out);
        out->append(name);
        SerializeValue(fv, out);
      }
      return;
    }
  }
}

namespace {

// A cursor over serialized bytes that decodes values, or walks over them
// building nothing. Every read returns false after recording the message of
// its first failure, and decoding and skipping share each check, so a
// skipped value fails with exactly the Corruption a decoded one would. The
// message becomes a Status once, at the top, which keeps the per-field cost
// of skipping to a few byte comparisons.
class Reader {
 public:
  Reader(std::string_view data, size_t pos) : data_(data), pos_(pos) {}

  size_t pos() const { return pos_; }
  Status status() const { return Status::Corruption(error_); }

  bool Varint(uint64_t* v) {
    if (pos_ < data_.size() && (data_[pos_] & 0x80) == 0) {  // one byte
      *v = static_cast<uint8_t>(data_[pos_++]);
      return true;
    }
    uint64_t out = 0;
    for (int shift = 0; pos_ < data_.size() && shift <= 63; shift += 7) {
      auto b = static_cast<uint8_t>(data_[pos_++]);
      out |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *v = out;
        return true;
      }
    }
    return Fail("truncated varint");
  }

  bool Double(double* d) {
    if (data_.size() - pos_ < 8) return Fail("truncated fixed64");
    std::memcpy(d, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }

  // `n` raw bytes (a string body or field name); `what` names them in the
  // error.
  bool Bytes(uint64_t n, const char* what, std::string_view* out) {
    if (n > data_.size() - pos_) return Fail(std::string("truncated ") + what);
    *out = std::string_view(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  // One value into `*out`, or skipped when `out` is null.
  bool ReadValue(Value* out) {
    if (pos_ >= data_.size()) return Fail("truncated value tag");
    auto tag = static_cast<TypeTag>(data_[pos_++]);
    switch (tag) {
      case TypeTag::kMissing:
        if (out) *out = Value::Missing();
        return true;
      case TypeTag::kNull:
        if (out) *out = Value::Null();
        return true;
      case TypeTag::kBoolean: {
        if (pos_ >= data_.size()) return Fail("truncated boolean");
        bool b = data_[pos_++] != 0;
        if (out) *out = Value::Boolean(b);
        return true;
      }
      case TypeTag::kInt64:
      case TypeTag::kDate:
      case TypeTag::kTime:
      case TypeTag::kDatetime:
      case TypeTag::kDuration: {
        uint64_t z;
        if (!Varint(&z)) return false;
        if (out) *out = Scalar(tag, UnZigZag(z));
        return true;
      }
      case TypeTag::kDouble: {
        double d;
        if (!Double(&d)) return false;
        if (out) *out = Value::Double(d);
        return true;
      }
      case TypeTag::kString: {
        uint64_t n;
        std::string_view body;
        if (!Varint(&n) || !Bytes(n, "string", &body)) return false;
        if (out) *out = Value::String(std::string(body));
        return true;
      }
      case TypeTag::kPoint: {
        double x, y;
        if (!Double(&x) || !Double(&y)) return false;
        if (out) *out = Value::MakePoint(x, y);
        return true;
      }
      case TypeTag::kRectangle: {
        double x1, y1, x2, y2;
        if (!Double(&x1) || !Double(&y1) || !Double(&x2) || !Double(&y2)) {
          return false;
        }
        if (out) *out = Value::MakeRectangle({x1, y1}, {x2, y2});
        return true;
      }
      case TypeTag::kArray:
      case TypeTag::kMultiset: {
        uint64_t n;
        if (!Varint(&n)) return false;
        std::vector<Value> items;
        // Every item takes at least one byte: a corrupt count cannot make
        // the reservation outgrow the buffer.
        if (out) items.reserve(std::min<uint64_t>(n, data_.size() - pos_));
        for (uint64_t i = 0; i < n; i++) {
          if (!out) {
            if (!ReadValue(nullptr)) return false;
            continue;
          }
          Value item;
          if (!ReadValue(&item)) return false;
          items.push_back(std::move(item));
        }
        if (out) {
          *out = tag == TypeTag::kArray ? Value::Array(std::move(items))
                                        : Value::Multiset(std::move(items));
        }
        return true;
      }
      case TypeTag::kObject:
        return ReadObject(out, nullptr, nullptr);
    }
    return Fail("bad type tag " + std::to_string(data_[pos_ - 1]));
  }

  // An object's body (after its tag). With `keep` (sorted) only the fields
  // it names are built; the others are walked over and counted into
  // `*skipped`. `out` null skips the whole object.
  bool ReadObject(Value* out, const std::vector<std::string>* keep,
                  uint64_t* skipped) {
    uint64_t n;
    if (!Varint(&n)) return false;
    FieldVec fields;
    if (out) {
      // A field takes at least two bytes (name length and value tag).
      uint64_t most = std::min<uint64_t>(n, (data_.size() - pos_) / 2);
      if (keep != nullptr) most = std::min<uint64_t>(most, keep->size());
      fields.reserve(most);
    }
    // Serialized names are sorted, so `keep` is matched by one merge walk;
    // a name out of order (hand-built bytes) restarts the walk.
    size_t k = 0;
    std::string_view prev;
    for (uint64_t i = 0; i < n; i++) {
      uint64_t len;
      std::string_view name;
      if (!Varint(&len) || !Bytes(len, "field name", &name)) return false;
      bool build = out != nullptr;
      if (build && keep != nullptr) {
        build = false;
        if (!keep->empty()) {
          if (name < prev) k = 0;
          prev = name;
          while (k < keep->size() && std::string_view((*keep)[k]) < name) k++;
          build = k < keep->size() && (*keep)[k] == name;
        }
        if (!build) (*skipped)++;
      }
      if (!build) {
        if (!ReadValue(nullptr)) return false;
        continue;
      }
      Value fv;
      if (!ReadValue(&fv)) return false;
      fields.emplace_back(std::string(name), std::move(fv));
    }
    if (out) *out = Value::Object(std::move(fields));
    return true;
  }

  // Corruption unless every byte was consumed.
  bool AtEnd() {
    return pos_ == data_.size() || Fail("trailing bytes after serialized value");
  }

 private:
  static Value Scalar(TypeTag tag, int64_t raw) {
    switch (tag) {
      case TypeTag::kDate: return Value::Date(raw);
      case TypeTag::kTime: return Value::Time(raw);
      case TypeTag::kDatetime: return Value::Datetime(raw);
      case TypeTag::kDuration: return Value::Duration(raw);
      default: return Value::Int(raw);
    }
  }

  bool Fail(std::string msg) {
    error_ = std::move(msg);
    return false;
  }

  std::string_view data_;
  size_t pos_;
  std::string error_;
};

}  // namespace

Result<uint64_t> GetVarint(std::string_view data, size_t* pos) {
  Reader r(data, *pos);
  uint64_t v;
  if (!r.Varint(&v)) return r.status();
  *pos = r.pos();
  return v;
}

Result<Value> DeserializeValue(std::string_view data, size_t* pos) {
  Reader r(data, *pos);
  Value v;
  if (!r.ReadValue(&v)) return r.status();
  *pos = r.pos();
  return v;
}

Result<Value> Deserialize(std::string_view data) {
  Reader r(data, 0);
  Value v;
  if (!r.ReadValue(&v) || !r.AtEnd()) return r.status();
  return v;
}

Result<Value> DeserializeProjected(std::string_view data,
                                   const std::vector<std::string>& fields,
                                   uint64_t* fields_skipped) {
  if (data.empty() || static_cast<TypeTag>(data[0]) != TypeTag::kObject) {
    return Deserialize(data);
  }
  Reader r(data, 1);
  Value v;
  uint64_t skipped = 0;
  if (!r.ReadObject(&v, &fields, &skipped) || !r.AtEnd()) return r.status();
  if (fields_skipped) *fields_skipped += skipped;
  return v;
}

RecordDecoder::RecordDecoder(std::vector<std::string> fields, bool projected)
    : fields_(std::move(fields)), projected_(projected) {
  std::sort(fields_.begin(), fields_.end());
  fields_.erase(std::unique(fields_.begin(), fields_.end()), fields_.end());
}

Result<Value> RecordDecoder::Decode(std::string_view raw) {
  if (!projected_) return Deserialize(raw);
  return DeserializeProjected(raw, fields_, &skipped_);
}

void RecordDecoder::Flush() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("adm.decode.fields_skipped");
  if (skipped_ > 0) c->Add(skipped_);
  skipped_ = 0;
}

}  // namespace asterix::adm
