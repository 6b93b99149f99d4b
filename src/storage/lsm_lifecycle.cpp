#include "storage/lsm_lifecycle.h"

#include <cstdio>
#include <cstring>

namespace asterix::storage {

LsmComponent::~LsmComponent() {
  // Best-effort unlink: leftovers are re-collected at the next open.
  if (obsolete) {
    // axlint: allow(must-check): best-effort obsolete-component unlink
    (void)fs::RemoveFile(data_path);
    // axlint: allow(must-check): best-effort obsolete-component unlink
    (void)fs::RemoveFile(commit_path);
  }
}

std::string LsmComponentBase(const std::string& dir, const std::string& name,
                             uint64_t lo, uint64_t hi) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "_%010llu_%010llu",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  return dir + "/" + name + buf;
}

Result<std::vector<LsmComponentFile>> ScanLsmComponentFiles(
    const std::string& dir, const std::string& name,
    std::span<const char* const> data_exts, const char* commit_ext,
    metrics::Counter* dropped) {
  AX_ASSIGN_OR_RETURN(auto names, fs::ListDir(dir));
  std::vector<LsmComponentFile> found;
  for (const auto& n : names) {
    if (n.compare(0, name.size(), name) != 0) continue;
    for (const char* ext : data_exts) {
      const size_t ext_len = std::strlen(ext);
      if (n.size() < name.size() + ext_len ||
          n.compare(n.size() - ext_len, ext_len, ext) != 0) {
        continue;
      }
      unsigned long long lo, hi;
      std::string seqs =
          n.substr(name.size(), n.size() - name.size() - ext_len);
      if (std::sscanf(seqs.c_str(), "_%llu_%llu", &lo, &hi) != 2) continue;
      LsmComponentFile file;
      file.seq_lo = lo;
      file.seq_hi = hi;
      file.data_path = dir + "/" + n;
      file.commit_path =
          file.data_path.substr(0, file.data_path.size() - ext_len) +
          commit_ext;
      found.push_back(std::move(file));
    }
  }
  // Newest first (descending seq_hi).
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return std::make_pair(a.seq_hi, a.seq_lo) >
           std::make_pair(b.seq_hi, b.seq_lo);
  });
  std::vector<LsmComponentFile> complete;
  for (auto& file : found) {
    if (!fs::Exists(file.commit_path)) {
      if (dropped != nullptr) dropped->Add(1);
      // axlint: allow(must-check): best-effort incomplete-component unlink
      (void)fs::RemoveFile(file.data_path);
      continue;
    }
    complete.push_back(std::move(file));
  }
  return complete;
}

}  // namespace asterix::storage
