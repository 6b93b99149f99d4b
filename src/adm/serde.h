// Binary serialization of ADM values: a compact tagged format used for
// LSM storage payloads, spill files, and the write-ahead log. Not ordered —
// index keys use the separate order-preserving encoding in key_encoder.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::adm {

/// Append the binary encoding of `v` to `out`.
void SerializeValue(const Value& v, std::string* out);

/// Serialize to a fresh buffer.
inline std::string Serialize(const Value& v) {
  std::string out;
  SerializeValue(v, &out);
  return out;
}

/// Decode one value from `data` starting at `*pos`; advances `*pos`.
Result<Value> DeserializeValue(std::string_view data, size_t* pos);

/// Decode a buffer that contains exactly one value. Reads `data` in place:
/// a scan passes the view of a pinned page.
Result<Value> Deserialize(std::string_view data);

/// Like Deserialize, but when the value is an object only the top-level
/// fields named in `fields` (sorted by name) are built; the result equals
/// Deserialize(data) with every other field removed. Skipped fields are
/// still walked and validated, so the call fails with the same Corruption
/// as Deserialize on the same bytes. Non-object values decode whole. Adds
/// the number of skipped fields to `*fields_skipped` when given.
Result<Value> DeserializeProjected(std::string_view data,
                                   const std::vector<std::string>& fields,
                                   uint64_t* fields_skipped = nullptr);

/// Decodes the stored records of one scan: whole, or projected to a field
/// set the optimizer proved is all the plan reads. Skipped fields are
/// tallied locally; Flush publishes the tally to the
/// `adm.decode.fields_skipped` counter (once per scan, not per record).
class RecordDecoder {
 public:
  /// Whole-record decoding.
  RecordDecoder() = default;
  /// Projected decoding when `projected`; `fields` need not be sorted.
  RecordDecoder(std::vector<std::string> fields, bool projected);

  /// Decodes one serialized record (Deserialize or DeserializeProjected).
  Result<Value> Decode(std::string_view raw);
  /// Adds the skipped-field tally to the counter and resets it.
  void Flush();

 private:
  std::vector<std::string> fields_;  // sorted, unique
  bool projected_ = false;
  uint64_t skipped_ = 0;
};

/// Varint helpers shared with the storage layer (LEB128, unsigned).
void PutVarint(uint64_t v, std::string* out);
Result<uint64_t> GetVarint(std::string_view data, size_t* pos);

}  // namespace asterix::adm
