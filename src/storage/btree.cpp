#include "storage/btree.h"

#include <algorithm>
#include <cstring>

namespace asterix::storage {

namespace {

constexpr char kMagic[8] = {'A', 'X', 'B', 'T', '0', '0', '0', '1'};
constexpr uint8_t kLeafFlag = 1;
constexpr uint8_t kInteriorFlag = 0;
constexpr uint8_t kEntryInline = 0;
constexpr uint8_t kEntryOverflow = 1;
constexpr PageNo kNoPage = UINT32_MAX;
// Values larger than this go to overflow pages.
constexpr size_t kMaxInlineValue = kPageSize / 4;
// min/max keys longer than this are stored truncated and treated as ±inf.
constexpr size_t kMaxStoredBoundary = 512;

// --- little-endian raw helpers on page buffers -----------------------------
void PutU16(std::string* buf, uint16_t v) {
  buf->append(reinterpret_cast<const char*>(&v), 2);
}
void PutU32(std::string* buf, uint32_t v) {
  buf->append(reinterpret_cast<const char*>(&v), 4);
}
uint16_t GetU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void PutVar(std::string* buf, uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buf->push_back(static_cast<char>(v));
}
uint64_t GetVar(const char* p, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t b = static_cast<uint8_t>(p[*pos]);
    (*pos)++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}
size_t VarLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

constexpr size_t kPageHeader = 8;  // flags(1) pad(1) count(2) next/unused(4)

size_t PageBytesUsed(size_t payload_bytes, size_t slot_count) {
  return kPageHeader + 2 * slot_count + payload_bytes;
}

// Assemble a page image from header fields, slots and packed payload. The
// payload's recorded slot offsets are relative to the payload start and get
// rebased to absolute page offsets here.
std::string AssemblePage(uint8_t flags, uint32_t next,
                         const std::vector<uint16_t>& slots,
                         const std::string& payload) {
  std::string page;
  page.reserve(kPageSize);
  page.push_back(static_cast<char>(flags));
  page.push_back(0);
  PutU16(&page, static_cast<uint16_t>(slots.size()));
  PutU32(&page, next);
  uint16_t base = static_cast<uint16_t>(kPageHeader + 2 * slots.size());
  for (uint16_t s : slots) PutU16(&page, static_cast<uint16_t>(s + base));
  page += payload;
  page.resize(kPageSize, '\0');
  return page;
}

}  // namespace

// ---------------------------------------------------------------------------
// BTreeBuilder
// ---------------------------------------------------------------------------

BTreeBuilder::BTreeBuilder(std::unique_ptr<File> file)
    : file_(std::move(file)) {}

BTreeBuilder::~BTreeBuilder() = default;

Result<std::unique_ptr<BTreeBuilder>> BTreeBuilder::Create(
    const std::string& path) {
  AX_ASSIGN_OR_RETURN(auto file, File::Create(path));
  return std::unique_ptr<BTreeBuilder>(new BTreeBuilder(std::move(file)));
}

Result<PageNo> BTreeBuilder::WritePage(const std::string& payload) {
  PageNo no = next_page_++;
  AX_RETURN_NOT_OK(
      file_->WriteAt(static_cast<uint64_t>(no) * kPageSize, kPageSize,
                     payload.data()));
  return no;
}

Status BTreeBuilder::Add(const std::string& key, const std::string& value) {
  if (finished_) return Status::Internal("builder already finished");
  if (count_ > 0 && key < last_key_) {
    return Status::InvalidArgument("bulk-load keys out of order");
  }
  // Encode the entry (possibly spilling the value to overflow pages).
  std::string entry;
  if (value.size() > kMaxInlineValue) {
    // Write overflow chain now; pages interleave with leaves harmlessly.
    entry.push_back(static_cast<char>(kEntryOverflow));
    PutVar(&entry, key.size());
    entry += key;
    size_t pos = 0;
    PageNo first = kNoPage;
    PageNo prev = kNoPage;
    std::string prev_page;
    while (pos < value.size()) {
      size_t chunk = std::min(value.size() - pos, kPageSize - 4);
      std::string page;
      PutU32(&page, kNoPage);  // next pointer patched below
      page.append(value, pos, chunk);
      page.resize(kPageSize, '\0');
      AX_ASSIGN_OR_RETURN(PageNo no, WritePage(page));
      if (first == kNoPage) first = no;
      if (prev != kNoPage) {
        // Patch previous chunk's next pointer.
        uint32_t link = no;
        AX_RETURN_NOT_OK(file_->WriteAt(
            static_cast<uint64_t>(prev) * kPageSize, 4, &link));
      }
      prev = no;
      pos += chunk;
    }
    PutU32(&entry, first);
    PutU32(&entry, static_cast<uint32_t>(value.size()));
  } else {
    entry.push_back(static_cast<char>(kEntryInline));
    PutVar(&entry, key.size());
    entry += key;
    PutVar(&entry, value.size());
    entry += value;
  }
  if (PageBytesUsed(entry.size(), 1) > kPageSize) {
    return Status::InvalidArgument("key too large for a B+tree page");
  }
  if (PageBytesUsed(leaf_buf_.size() + entry.size(), leaf_slots_.size() + 1) >
      kPageSize) {
    AX_RETURN_NOT_OK(FlushLeaf());
  }
  if (leaf_slots_.empty()) leaf_first_key_ = key;
  leaf_slots_.push_back(static_cast<uint16_t>(leaf_buf_.size()));
  leaf_buf_ += entry;
  last_key_ = key;
  if (count_ == 0) min_key_ = key;
  max_key_ = key;
  count_++;
  return Status::OK();
}

Status BTreeBuilder::FlushLeaf() {
  if (leaf_slots_.empty()) return Status::OK();
  std::string page = AssemblePage(kLeafFlag, kNoPage, leaf_slots_, leaf_buf_);
  AX_ASSIGN_OR_RETURN(PageNo no, WritePage(page));
  if (level0_.empty()) first_leaf_ = no;
  level0_.emplace_back(leaf_first_key_, no);
  leaf_buf_.clear();
  leaf_slots_.clear();
  return Status::OK();
}

Result<BTreeMeta> BTreeBuilder::Finish() {
  if (finished_) return Status::Internal("builder already finished");
  finished_ = true;
  AX_RETURN_NOT_OK(FlushLeaf());
  if (level0_.empty()) {
    // Empty tree: a single empty leaf keeps readers trivial.
    std::string page = AssemblePage(kLeafFlag, kNoPage, {}, "");
    AX_ASSIGN_OR_RETURN(PageNo no, WritePage(page));
    first_leaf_ = no;
    level0_.emplace_back("", no);
  }
  // Patch leaf chain next pointers.
  for (size_t i = 0; i + 1 < level0_.size(); i++) {
    uint32_t next = level0_[i + 1].second;
    AX_RETURN_NOT_OK(file_->WriteAt(
        static_cast<uint64_t>(level0_[i].second) * kPageSize + 4, 4, &next));
  }
  // Build interior levels bottom-up.
  std::vector<std::pair<std::string, PageNo>> level = std::move(level0_);
  uint32_t height = 1;
  while (level.size() > 1) {
    std::vector<std::pair<std::string, PageNo>> parent;
    std::string payload;
    std::vector<uint16_t> slots;
    std::string first_key;
    auto flush_interior = [&]() -> Status {
      std::string page = AssemblePage(kInteriorFlag, kNoPage, slots, payload);
      AX_ASSIGN_OR_RETURN(PageNo no, WritePage(page));
      parent.emplace_back(first_key, no);
      payload.clear();
      slots.clear();
      return Status::OK();
    };
    for (auto& [key, child] : level) {
      size_t entry_size = VarLen(key.size()) + key.size() + 4 + 1;
      if (!slots.empty() &&
          PageBytesUsed(payload.size() + entry_size, slots.size() + 1) >
              kPageSize) {
        AX_RETURN_NOT_OK(flush_interior());
      }
      if (slots.empty()) first_key = key;
      slots.push_back(static_cast<uint16_t>(payload.size()));
      payload.push_back(static_cast<char>(kEntryInline));
      PutVar(&payload, key.size());
      payload += key;
      PutU32(&payload, child);
    }
    if (!slots.empty()) AX_RETURN_NOT_OK(flush_interior());
    level = std::move(parent);
    height++;
  }
  BTreeMeta meta;
  meta.root = level[0].second;
  meta.height = height;
  meta.entry_count = count_;
  meta.first_leaf = first_leaf_;
  meta.min_key = min_key_;
  meta.max_key = max_key_;
  // Footer page.
  std::string footer(kMagic, 8);
  PutU32(&footer, meta.root);
  PutU32(&footer, meta.height);
  footer.append(reinterpret_cast<const char*>(&count_), 8);
  // First leaf page number.
  // (level0_ was moved; the first leaf is simply the first page we wrote
  // that is a leaf — we recorded it as the head of the patched chain.)
  PutU32(&footer, meta.first_leaf);
  bool min_trunc = min_key_.size() > kMaxStoredBoundary;
  bool max_trunc = max_key_.size() > kMaxStoredBoundary;
  footer.push_back(min_trunc ? 1 : 0);
  footer.push_back(max_trunc ? 1 : 0);
  std::string min_stored = min_key_.substr(0, kMaxStoredBoundary);
  std::string max_stored = max_key_.substr(0, kMaxStoredBoundary);
  PutU32(&footer, static_cast<uint32_t>(min_stored.size()));
  footer += min_stored;
  PutU32(&footer, static_cast<uint32_t>(max_stored.size()));
  footer += max_stored;
  footer.resize(kPageSize, '\0');
  AX_ASSIGN_OR_RETURN(PageNo footer_no, WritePage(footer));
  meta.page_count = footer_no + 1;
  AX_RETURN_NOT_OK(file_->Sync());
  file_.reset();
  return meta;
}

// ---------------------------------------------------------------------------
// BTree (reader)
// ---------------------------------------------------------------------------

Result<std::unique_ptr<BTree>> BTree::Open(const std::string& path,
                                           BufferCache* cache) {
  AX_ASSIGN_OR_RETURN(FileId fid, cache->RegisterFile(path, false));
  AX_ASSIGN_OR_RETURN(PageNo pages, cache->PageCount(fid));
  if (pages == 0) {
    // axlint: allow(must-check): cleanup on the corruption error path
    (void)cache->UnregisterFile(fid);
    return Status::Corruption("empty B+tree file '" + path + "'");
  }
  BTreeMeta meta;
  {
    AX_ASSIGN_OR_RETURN(PageHandle footer, cache->Pin(fid, pages - 1));
    const char* p = footer.data();
    if (std::memcmp(p, kMagic, 8) != 0) {
      // axlint: allow(must-check): cleanup on the corruption error path
      (void)cache->UnregisterFile(fid);
      return Status::Corruption("bad B+tree magic in '" + path + "'");
    }
    meta.root = GetU32(p + 8);
    meta.height = GetU32(p + 12);
    std::memcpy(&meta.entry_count, p + 16, 8);
    meta.first_leaf = GetU32(p + 24);
    size_t pos = 28;
    bool min_trunc = p[pos] != 0;
    bool max_trunc = p[pos + 1] != 0;
    pos += 2;
    uint32_t min_len = GetU32(p + pos);
    pos += 4;
    meta.min_key.assign(p + pos, min_len);
    pos += min_len;
    uint32_t max_len = GetU32(p + pos);
    pos += 4;
    meta.max_key.assign(p + pos, max_len);
    if (min_trunc) meta.min_key.clear();  // treat as -inf
    if (max_trunc) meta.max_key.assign(1, '\xff');  // treat as +inf
    meta.page_count = pages;
  }
  auto tree = std::unique_ptr<BTree>(new BTree(path, cache, fid, meta));
  AX_ASSIGN_OR_RETURN(tree->fref_, cache->GetFileRef(fid));
  return tree;
}

BTree::~BTree() {
  // axlint: allow(must-check): destructor; unregister is best-effort
  if (cache_) (void)cache_->UnregisterFile(file_);
}

namespace {
// Parse the key of entry `slot` on a pinned page. Returns the key bytes and
// reports the post-key parse position for value extraction.
struct EntryView {
  uint8_t flags;
  const char* key;
  size_t key_len;
  size_t value_pos;  // absolute offset in page of the value descriptor
};

EntryView ParseEntryHeader(const char* page, uint16_t slot_index) {
  uint16_t count = GetU16(page + 2);
  (void)count;
  uint16_t off = GetU16(page + kPageHeader + 2 * slot_index);
  size_t pos = off;
  EntryView v;
  v.flags = static_cast<uint8_t>(page[pos]);
  pos++;
  uint64_t klen = GetVar(page, &pos);
  v.key = page + pos;
  v.key_len = klen;
  v.value_pos = pos + klen;
  return v;
}

int CompareKey(const char* a, size_t alen, const std::string& b) {
  int c = std::memcmp(a, b.data(), std::min(alen, b.size()));
  if (c != 0) return c;
  return alen < b.size() ? -1 : (alen > b.size() ? 1 : 0);
}
}  // namespace

Result<PageNo> BTree::FindLeaf(const std::string& key) const {
  PageNo page_no = meta_.root;
  for (uint32_t level = meta_.height; level > 1; level--) {
    AX_ASSIGN_OR_RETURN(PageHandle page, cache_->Pin(fref_, page_no));
    const char* p = page.data();
    uint16_t count = GetU16(p + 2);
    if (count == 0) return Status::Corruption("empty interior page");
    // Find last separator <= key (binary search over slots).
    uint16_t lo = 0, hi = count;  // child index in [0, count)
    while (hi - lo > 1) {
      uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
      EntryView e = ParseEntryHeader(p, mid);
      if (CompareKey(e.key, e.key_len, key) <= 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    EntryView e = ParseEntryHeader(p, lo);
    page_no = GetU32(p + e.value_pos);
  }
  return page_no;
}

Status BTree::ReadOverflow(PageNo chunk, uint32_t total,
                           std::string* value) const {
  value->clear();
  value->reserve(total);
  while (value->size() < total) {
    if (chunk == kNoPage) return Status::Corruption("overflow chain too short");
    AX_ASSIGN_OR_RETURN(PageHandle ov, cache_->Pin(fref_, chunk));
    size_t want = std::min<size_t>(total - value->size(), kPageSize - 4);
    value->append(ov.data() + 4, want);
    chunk = GetU32(ov.data());
  }
  return Status::OK();
}

Result<bool> BTree::Find(const std::string& key, Iterator* it) const {
  it->valid_ = false;
  it->page_ = PageHandle();
  if (meta_.entry_count == 0) return false;
  AX_ASSIGN_OR_RETURN(PageNo leaf, FindLeaf(key));
  AX_RETURN_NOT_OK(it->PinLeaf(leaf));
  const char* p = it->page_.data();
  uint16_t count = GetU16(p + 2);
  uint16_t lo = 0, hi = count;
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    EntryView e = ParseEntryHeader(p, mid);
    int c = CompareKey(e.key, e.key_len, key);
    if (c < 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else if (c > 0) {
      hi = mid;
    } else {
      it->slot_ = mid;
      it->valid_ = true;
      AX_RETURN_NOT_OK(it->LoadEntry());
      return true;
    }
  }
  it->page_ = PageHandle();
  return false;
}

Result<bool> BTree::Get(const std::string& key, std::string* value) const {
  Iterator it(this);
  AX_ASSIGN_OR_RETURN(bool found, Find(key, &it));
  if (found) value->assign(it.value());
  return found;
}

Status BTree::Iterator::PinLeaf(PageNo leaf) {
  AX_ASSIGN_OR_RETURN(page_, tree_->cache_->Pin(tree_->fref_, leaf));
  leaf_ = leaf;
  return Status::OK();
}

Status BTree::Iterator::Seek(const std::string& key) {
  valid_ = false;
  page_ = PageHandle();
  if (tree_->meta_.entry_count == 0) return Status::OK();
  AX_ASSIGN_OR_RETURN(PageNo leaf, tree_->FindLeaf(key));
  while (leaf != kNoPage) {
    AX_RETURN_NOT_OK(PinLeaf(leaf));
    const char* p = page_.data();
    uint16_t count = GetU16(p + 2);
    // First slot with entry key >= key.
    uint16_t lo = 0, hi = count;
    while (lo < hi) {
      uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
      EntryView e = ParseEntryHeader(p, mid);
      if (CompareKey(e.key, e.key_len, key) < 0) {
        lo = static_cast<uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    if (lo < count) {
      slot_ = lo;
      valid_ = true;
      return LoadEntry();
    }
    leaf = GetU32(p + 4);  // next leaf
  }
  page_ = PageHandle();
  return Status::OK();
}

Status BTree::Iterator::SeekToFirst() {
  valid_ = false;
  page_ = PageHandle();
  if (tree_->meta_.entry_count == 0) return Status::OK();
  // The first leaf is the leftmost: descend always taking child 0.
  PageNo page_no = tree_->meta_.root;
  for (uint32_t level = tree_->meta_.height; level > 1; level--) {
    AX_ASSIGN_OR_RETURN(PageHandle page, tree_->cache_->Pin(tree_->fref_, page_no));
    EntryView e = ParseEntryHeader(page.data(), 0);
    page_no = GetU32(page.data() + e.value_pos);
  }
  AX_RETURN_NOT_OK(PinLeaf(page_no));
  slot_ = 0;
  valid_ = true;
  return LoadEntry();
}

Status BTree::Iterator::Next() {
  if (!valid_) return Status::OK();
  const char* p = page_.data();
  uint16_t count = GetU16(p + 2);
  if (slot_ + 1 < count) {
    slot_++;
    return LoadEntry();
  }
  PageNo next = GetU32(p + 4);
  while (next != kNoPage) {
    AX_RETURN_NOT_OK(PinLeaf(next));
    if (GetU16(page_.data() + 2) > 0) {
      slot_ = 0;
      return LoadEntry();
    }
    next = GetU32(page_.data() + 4);
  }
  valid_ = false;
  page_ = PageHandle();
  return Status::OK();
}

Status BTree::Iterator::LoadEntry() {
  const char* p = page_.data();
  EntryView e = ParseEntryHeader(p, slot_);
  key_ = std::string_view(e.key, e.key_len);
  size_t pos = e.value_pos;
  if (e.flags == kEntryInline) {
    uint64_t vlen = GetVar(p, &pos);
    value_ = std::string_view(p + pos, vlen);
    return Status::OK();
  }
  AX_RETURN_NOT_OK(
      tree_->ReadOverflow(GetU32(p + pos), GetU32(p + pos + 4), &overflow_));
  value_ = overflow_;
  return Status::OK();
}

}  // namespace asterix::storage
