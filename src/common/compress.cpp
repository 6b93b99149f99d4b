#include "common/compress.h"

#include <cstring>
#include <vector>

namespace asterix {

namespace {
constexpr size_t kWindow = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kHashSize = 1 << 15;

void PutVar(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVar(std::string_view data, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    uint8_t b = static_cast<uint8_t>(data[*pos]);
    (*pos)++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::Corruption("truncated varint in compressed data");
}

uint32_t HashAt(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 17 & (kHashSize - 1);
}
}  // namespace

std::string Compress(const std::string& input) {
  std::string out;
  PutVar(&out, input.size());
  if (input.empty()) return out;

  // Hash chains: head[h] = most recent position with hash h; prev[i] =
  // previous position in i's chain.
  std::vector<int64_t> head(kHashSize, -1);
  std::vector<int64_t> prev(input.size(), -1);

  std::string literals;
  auto flush_literals = [&] {
    if (literals.empty()) return;
    out.push_back(0x00);
    PutVar(&out, literals.size());
    out += literals;
    literals.clear();
  };

  size_t i = 0;
  while (i < input.size()) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= input.size()) {
      uint32_t h = HashAt(input.data() + i);
      int64_t cand = head[h];
      int probes = 16;
      while (cand >= 0 && probes-- > 0 &&
             i - static_cast<size_t>(cand) <= kWindow) {
        size_t len = 0;
        size_t max_len = std::min(kMaxMatch, input.size() - i);
        const char* a = input.data() + i;
        const char* b = input.data() + cand;
        while (len < max_len && a[len] == b[len]) len++;
        if (len > best_len) {
          best_len = len;
          best_dist = i - static_cast<size_t>(cand);
        }
        cand = prev[static_cast<size_t>(cand)];
      }
    }
    if (best_len >= kMinMatch) {
      flush_literals();
      out.push_back(0x01);
      PutVar(&out, best_dist);
      PutVar(&out, best_len);
      // Index the covered positions (sparsely, to bound cost).
      size_t end = i + best_len;
      for (; i < end && i + kMinMatch <= input.size(); i += 1) {
        uint32_t h = HashAt(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      i = end;
    } else {
      if (i + kMinMatch <= input.size()) {
        uint32_t h = HashAt(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      literals.push_back(input[i]);
      i++;
    }
  }
  flush_literals();
  return out;
}

Status DecompressInto(std::string_view compressed, std::string* out_buf) {
  std::string& out = *out_buf;
  out.clear();
  size_t pos = 0;
  AX_ASSIGN_OR_RETURN(uint64_t total, GetVar(compressed, &pos));
  out.reserve(total);
  while (out.size() < total) {
    if (pos >= compressed.size()) {
      return Status::Corruption("compressed stream ends early");
    }
    char tag = compressed[pos++];
    if (tag == 0x00) {
      AX_ASSIGN_OR_RETURN(uint64_t len, GetVar(compressed, &pos));
      if (pos + len > compressed.size() || out.size() + len > total) {
        return Status::Corruption("bad literal run");
      }
      out.append(compressed.substr(pos, len));
      pos += len;
    } else if (tag == 0x01) {
      AX_ASSIGN_OR_RETURN(uint64_t dist, GetVar(compressed, &pos));
      AX_ASSIGN_OR_RETURN(uint64_t len, GetVar(compressed, &pos));
      if (dist == 0 || dist > out.size() || out.size() + len > total) {
        return Status::Corruption("bad match token");
      }
      // Byte-by-byte copy: matches may overlap themselves (RLE-style).
      size_t src = out.size() - dist;
      for (uint64_t k = 0; k < len; k++) out.push_back(out[src + k]);
    } else {
      return Status::Corruption("bad token tag in compressed data");
    }
  }
  if (pos != compressed.size()) {
    return Status::Corruption("trailing bytes after compressed stream");
  }
  return Status::OK();
}

Result<std::string> Decompress(std::string_view compressed) {
  std::string out;
  AX_RETURN_NOT_OK(DecompressInto(compressed, &out));
  return out;
}

}  // namespace asterix
