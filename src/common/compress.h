// Storage compression (paper §VII lists it among the open-source
// contributions that benefited the commercial product). A dependency-free
// LZSS-style byte compressor used by the LSM disk components: greedy
// longest-match against a 64 KiB sliding window with a hash-chain index.
// Format: varint uncompressed-size, then a token stream of
//   0x00 len   <len literal bytes>
//   0x01 dist len                      (match: copy `len` from `dist` back)
// with varint-encoded fields.
#pragma once

#include <string>
#include <string_view>

#include "common/result.h"

namespace asterix {

/// Compress `input`; output is self-describing.
std::string Compress(const std::string& input);

/// Decompress a Compress() buffer; fails on corruption.
Result<std::string> Decompress(std::string_view compressed);

/// Decompress into `*out`, replacing its contents; a caller that decodes
/// many buffers reuses one output's capacity.
Status DecompressInto(std::string_view compressed, std::string* out);

}  // namespace asterix
