// Uniform access to LsmBTree and LsmRTree for typed tests of the shared LSM
// lifecycle. Entries are integer keys with string values: the B+tree stores
// each as one row; the R-tree as a point at the key's grid position whose
// payload carries the key and the value, so an overwrite is a Remove of the
// old entry plus an Insert of the new one.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adm/key_encoder.h"
#include "storage/lsm_btree.h"
#include "storage/lsm_rtree.h"

namespace asterix::storage {

/// Live contents of a tree, ascending by key (duplicates kept, so a scan
/// that returns an entry twice does not compare equal to a model).
using LsmRows = std::vector<std::pair<int64_t, std::string>>;

template <class Tree>
struct LsmTreeOps;

template <>
struct LsmTreeOps<LsmBTree> {
  using Options = LsmOptions;
  static constexpr const char* kName = "BTree";

  static std::string Key(int64_t k) {
    return adm::EncodeKey(adm::Value::Int(k)).value();
  }
  static Status Put(LsmBTree& t, int64_t k, const std::string& v) {
    return t.Put(Key(k), v);
  }
  static Status Overwrite(LsmBTree& t, int64_t k, const std::string& /*old*/,
                          const std::string& v) {
    return t.Put(Key(k), v);
  }
  static Status Erase(LsmBTree& t, int64_t k, const std::string& /*v*/) {
    return t.Delete(Key(k));
  }
  static Result<std::optional<std::string>> Find(const LsmBTree& t,
                                                 int64_t k) {
    std::string v;
    AX_ASSIGN_OR_RETURN(bool found, t.Get(Key(k), &v));
    if (!found) return std::optional<std::string>();
    return std::optional<std::string>(std::move(v));
  }
  static Result<LsmRows> Scan(const LsmBTree& t) {
    LsmRows rows;
    AX_ASSIGN_OR_RETURN(auto it, t.NewIterator());
    AX_RETURN_NOT_OK(it.SeekToFirst());
    while (it.Valid()) {
      AX_ASSIGN_OR_RETURN(auto parts, adm::DecodeKey(it.key()));
      rows.emplace_back(parts[0].AsInt(), it.value());
      AX_RETURN_NOT_OK(it.Next());
    }
    return rows;
  }
};

template <>
struct LsmTreeOps<LsmRTree> {
  using Options = LsmRTreeOptions;
  static constexpr const char* kName = "RTree";

  static adm::Rectangle At(int64_t k) {
    adm::Point p{static_cast<double>(k % 1000), static_cast<double>(k / 1000)};
    return adm::Rectangle{p, p};
  }
  static std::string Payload(int64_t k, const std::string& v) {
    return std::to_string(k) + "=" + v;
  }
  static Status Put(LsmRTree& t, int64_t k, const std::string& v) {
    return t.Insert(At(k), Payload(k, v));
  }
  static Status Overwrite(LsmRTree& t, int64_t k, const std::string& old,
                          const std::string& v) {
    AX_RETURN_NOT_OK(t.Remove(At(k), Payload(k, old)));
    return t.Insert(At(k), Payload(k, v));
  }
  static Status Erase(LsmRTree& t, int64_t k, const std::string& v) {
    return t.Remove(At(k), Payload(k, v));
  }
  static Result<std::optional<std::string>> Find(const LsmRTree& t,
                                                 int64_t k) {
    AX_ASSIGN_OR_RETURN(auto entries, t.Query(At(k)));
    std::optional<std::string> found;
    const std::string prefix = std::to_string(k) + "=";
    for (const auto& e : entries) {
      if (e.payload.compare(0, prefix.size(), prefix) != 0) continue;
      if (found) return Status::Internal("key " + prefix + " is live twice");
      found = e.payload.substr(prefix.size());
    }
    return found;
  }
  static Result<LsmRows> Scan(const LsmRTree& t) {
    AX_ASSIGN_OR_RETURN(auto entries,
                        t.Query({{-1e300, -1e300}, {1e300, 1e300}}));
    LsmRows rows;
    for (const auto& e : entries) {
      size_t eq = e.payload.find('=');
      rows.emplace_back(std::stoll(e.payload.substr(0, eq)),
                        e.payload.substr(eq + 1));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

/// Writes `k = v` to both the tree and the model of its contents.
template <class Tree>
Status ModelPut(Tree& t, std::map<int64_t, std::string>* model, int64_t k,
                const std::string& v) {
  auto it = model->find(k);
  Status s = it == model->end()
                 ? LsmTreeOps<Tree>::Put(t, k, v)
                 : LsmTreeOps<Tree>::Overwrite(t, k, it->second, v);
  (*model)[k] = v;
  return s;
}

/// Deletes `k` from both the tree and the model (a no-op if absent).
template <class Tree>
Status ModelErase(Tree& t, std::map<int64_t, std::string>* model, int64_t k) {
  auto it = model->find(k);
  if (it == model->end()) return Status::OK();
  Status s = LsmTreeOps<Tree>::Erase(t, k, it->second);
  model->erase(it);
  return s;
}

inline LsmRows ModelRows(const std::map<int64_t, std::string>& model) {
  return LsmRows(model.begin(), model.end());
}

/// Typed fixture: a fresh directory and buffer cache per test.
template <class Tree>
class LsmTreeTest : public ::testing::Test {
 protected:
  using Ops = LsmTreeOps<Tree>;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string suite = info->test_suite_name();
    std::replace(suite.begin(), suite.end(), '/', '_');
    dir_ = ::testing::TempDir() + "axlsmt_" + suite + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  typename Ops::Options Options(MaintenanceScheduler* sched = nullptr,
                                size_t mem_budget = 1 << 14) {
    typename Ops::Options o;
    o.dir = dir_;
    o.name = "ds";
    o.cache = cache_.get();
    o.mem_budget_bytes = mem_budget;
    o.scheduler = sched;
    return o;
  }
  std::unique_ptr<Tree> Open(const typename Ops::Options& o) {
    return Tree::Open(o).value();
  }
  /// Number of files in the tree's directory.
  size_t FileCount() const {
    return static_cast<size_t>(
        std::distance(std::filesystem::directory_iterator(dir_),
                      std::filesystem::directory_iterator()));
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

using LsmTreeTypes = ::testing::Types<LsmBTree, LsmRTree>;

struct LsmTreeNames {
  template <class Tree>
  static std::string GetName(int) {
    return LsmTreeOps<Tree>::kName;
  }
};

}  // namespace asterix::storage
