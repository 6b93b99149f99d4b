// Immutable on-disk B+tree, the disk-component building block of every
// LSM index in asterix-lite (paper §III: "partitions of LSM-based B+ trees").
// Built once by sorted bulk load (BTreeBuilder), then read through the
// shared buffer cache. Keys and values are byte strings; key order is
// memcmp order (callers encode keys with adm::EncodeKey).
//
// File layout: leaf pages (chained), overflow pages for large values,
// interior pages, then a footer page with the tree metadata.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/buffer_cache.h"

namespace asterix::storage {

/// Metadata stored in the footer page.
struct BTreeMeta {
  PageNo root = 0;
  uint32_t height = 0;       // 1 = root is a leaf
  uint64_t entry_count = 0;
  PageNo first_leaf = 0;
  PageNo page_count = 0;
  std::string min_key;
  std::string max_key;
};

/// Streaming bulk loader. Keys must be added in non-decreasing order.
class BTreeBuilder {
 public:
  /// Start building at `path` (truncates any existing file).
  static Result<std::unique_ptr<BTreeBuilder>> Create(const std::string& path);
  ~BTreeBuilder();

  /// Append an entry; `key` must be >= all previously added keys.
  Status Add(const std::string& key, const std::string& value);
  /// Write interior levels + footer; returns the final metadata.
  Result<BTreeMeta> Finish();

  uint64_t entry_count() const { return count_; }

 private:
  explicit BTreeBuilder(std::unique_ptr<File> file);
  Status FlushLeaf();
  Result<PageNo> WritePage(const std::string& payload);

  std::unique_ptr<File> file_;
  std::string leaf_buf_;                // packed entries of the current leaf
  std::vector<uint16_t> leaf_slots_;    // entry offsets within leaf_buf_
  std::string leaf_first_key_;
  std::vector<std::pair<std::string, PageNo>> level0_;  // (first key, leaf)
  PageNo next_page_ = 0;
  PageNo first_leaf_ = 0;
  uint64_t count_ = 0;
  std::string last_key_;
  std::string min_key_, max_key_;
  bool finished_ = false;
};

/// Read-only view of a built B+tree, served through a BufferCache.
class BTree {
 public:
  /// Open the tree at `path`, registering it with `cache`.
  static Result<std::unique_ptr<BTree>> Open(const std::string& path,
                                             BufferCache* cache);
  ~BTree();

  /// Point lookup. Returns true and fills `*value` if found.
  Result<bool> Get(const std::string& key, std::string* value) const;

  /// Forward iterator over entries in key order. Holds a pin on the
  /// current leaf page so sequential scans touch the buffer cache once per
  /// page, not once per entry.
  ///
  /// key() and value() are views, valid until the next Next, Seek,
  /// SeekToFirst, Find or the iterator's destruction. Both point into the
  /// pinned leaf, except an overflow value, which is read into a buffer
  /// the iterator owns.
  class Iterator {
   public:
    /// Position at the first entry with key >= `key`.
    Status Seek(const std::string& key);
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    Status Next();
    std::string_view key() const { return key_; }
    std::string_view value() const { return value_; }

   private:
    friend class BTree;
    explicit Iterator(const BTree* tree) : tree_(tree) {}
    Status PinLeaf(PageNo leaf);
    Status LoadEntry();
    const BTree* tree_;
    PageNo leaf_ = 0;
    uint16_t slot_ = 0;
    bool valid_ = false;
    PageHandle page_;  // pinned current leaf
    std::string_view key_, value_;
    std::string overflow_;  // value_ of an overflow entry
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Point lookup that leaves `it` (from this tree) on the entry with key
  /// `key`: true if there is one, else false with `it` invalid. The
  /// iterator's value() then reads the entry in place.
  Result<bool> Find(const std::string& key, Iterator* it) const;

  const BTreeMeta& meta() const { return meta_; }
  uint64_t entry_count() const { return meta_.entry_count; }
  const std::string& path() const { return path_; }

 private:
  BTree(std::string path, BufferCache* cache, FileId file, BTreeMeta meta)
      : path_(std::move(path)), cache_(cache), file_(file), meta_(meta) {}

  /// Descend from the root to the leaf that may contain `key`.
  Result<PageNo> FindLeaf(const std::string& key) const;
  /// Read an overflow value of `total` bytes whose chain starts at page
  /// `chunk` into `*value`.
  Status ReadOverflow(PageNo chunk, uint32_t total, std::string* value) const;

  std::string path_;
  BufferCache* cache_;
  FileId file_;
  FileRef fref_;  // registry-free pin path
  BTreeMeta meta_;
};

}  // namespace asterix::storage
