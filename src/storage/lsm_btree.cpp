#include "storage/lsm_btree.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "adm/serde.h"
#include "common/compress.h"
#include "common/io.h"
#include "common/metrics.h"

namespace asterix::storage {

namespace {
LsmMetrics BTreeMetrics() {
  auto& registry = metrics::Registry::Global();
  LsmMetrics m;
  m.flushes = registry.GetCounter("storage.lsm.flushes");
  m.flush_bytes = registry.GetCounter("storage.lsm.flush_bytes");
  m.merges = registry.GetCounter("storage.lsm.merges");
  m.merge_bytes = registry.GetCounter("storage.lsm.merge_bytes");
  m.write_stalls = registry.GetCounter("storage.lsm.write_stalls");
  m.write_stall_ns = registry.GetCounter("storage.lsm.write_stall_ns");
  m.incomplete_dropped =
      registry.GetCounter("storage.lsm.incomplete_components_dropped");
  return m;
}
metrics::Counter* ColumnarComponentsCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "storage.columnar.components_written");
  return c;
}

constexpr char kLive = 0;
constexpr char kAntimatter = 1;
constexpr char kLiveCompressed = 2;
constexpr size_t kCompressThreshold = 64;

// Encode a live value per the compression option; antimatter entries are
// always the bare kAntimatter byte.
std::string EncodeDiskValue(const std::string& value, bool antimatter,
                            bool compress) {
  if (antimatter) return std::string(1, kAntimatter);
  if (compress && value.size() >= kCompressThreshold) {
    std::string packed = Compress(value);
    if (packed.size() < value.size()) {
      std::string out(1, kLiveCompressed);
      out += packed;
      return out;
    }
  }
  std::string out(1, kLive);
  out += value;
  return out;
}

// True (and fills `records`, antimatter slots left Missing) iff every live
// row decodes to an ADM value the columnar layout can represent.
bool DecodeColumnarRecords(const std::vector<LsmBTree::SnapshotEntry>& rows,
                           std::vector<adm::Value>* records) {
  records->clear();
  records->reserve(rows.size());
  for (const auto& row : rows) {
    if (row.antimatter) {
      records->push_back(adm::Value::Missing());
      continue;
    }
    auto decoded = adm::Deserialize(row.value);
    if (!decoded.ok() || !RecordIsColumnar(decoded.value())) return false;
    records->push_back(std::move(decoded).value());
  }
  return true;
}
}  // namespace

bool DiskEntryIsAntimatter(std::string_view raw) {
  return !raw.empty() && raw[0] == kAntimatter;
}

Status DecodeDiskEntry(std::string_view raw, std::string* out) {
  if (raw.empty()) return Status::Corruption("empty LSM disk entry");
  if (raw[0] == kLiveCompressed) return DecompressInto(raw.substr(1), out);
  out->assign(raw.substr(1));
  return Status::OK();
}

namespace {
// The live value of entry `raw` as a view: past the marker byte, in place,
// when the entry is stored plain; else decoded into `*scratch`.
Result<std::string_view> DiskEntryView(std::string_view raw,
                                       std::string* scratch) {
  if (!raw.empty() && raw[0] == kLive) return raw.substr(1);
  AX_RETURN_NOT_OK(DecodeDiskEntry(raw, scratch));
  return std::string_view(*scratch);
}
}  // namespace

LsmBTree::LsmBTree(const LsmOptions& options)
    : life_(options, Format{options}, BTreeMetrics()) {}

Result<std::unique_ptr<LsmBTree>> LsmBTree::Open(const LsmOptions& options) {
  auto tree = std::unique_ptr<LsmBTree>(new LsmBTree(options));
  AX_RETURN_NOT_OK(tree->life_.Open());
  return tree;
}

Status LsmBTree::Format::OpenComponent(DiskComponent* comp) const {
  const std::string& path = comp->data_path;
  if (path.compare(path.size() - 4, 4, ".col") == 0) {
    AX_ASSIGN_OR_RETURN(comp->col, ColumnarReader::Open(path));
    comp->bytes = comp->col->file_bytes();
  } else {
    AX_ASSIGN_OR_RETURN(comp->tree, BTree::Open(path, options.cache));
    comp->bytes =
        static_cast<uint64_t>(comp->tree->meta().page_count) * kPageSize;
  }
  AX_ASSIGN_OR_RETURN(auto bloom_data,
                      fs::ReadFileToString(comp->commit_path));
  AX_ASSIGN_OR_RETURN(comp->bloom, BloomFilter::Deserialize(bloom_data));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status LsmBTree::Put(const std::string& key, const std::string& value) {
  return life_.Write([&](Format::Mem& mem, bool /*has_older*/) {
    mem.insert_or_assign(key, MemEntry{false, value});
    return key.size() + value.size() + 32;
  });
}

Status LsmBTree::Delete(const std::string& key) {
  return life_.Write([&](Format::Mem& mem, bool /*has_older*/) {
    mem.insert_or_assign(key, MemEntry{true, ""});
    return key.size() + 32;
  });
}

Result<bool> LsmBTree::Get(const std::string& key, std::string* value) const {
  std::optional<bool> in_mem;
  Lifecycle::Stack stack = life_.Pin([&](const Format::Mem& mem) {
    auto it = mem.find(key);
    if (it == mem.end()) return;
    in_mem = !it->second.antimatter;
    if (*in_mem && value) *value = it->second.value;
  });
  if (in_mem) return *in_mem;
  // Immutable memory components are frozen; probing them off-lock is safe.
  for (const auto& imm : stack.immutables) {
    auto it = imm->mem.find(key);
    if (it == imm->mem.end()) continue;
    if (it->second.antimatter) return false;
    if (value) *value = it->second.value;
    return true;
  }
  for (const auto& comp : stack.disk) {
    if (!comp->bloom.MayContain(key)) continue;
    if (comp->columnar()) {
      uint64_t row = comp->col->LowerBound(key);
      if (row >= comp->col->row_count() || comp->col->key(row) != key) continue;
      if (comp->col->antimatter(row)) return false;
      if (value) {
        AX_ASSIGN_OR_RETURN(adm::Value record, comp->col->ReadRecord(row));
        *value = adm::Serialize(record);
      }
      return true;
    }
    BTree::Iterator entry = comp->tree->NewIterator();
    AX_ASSIGN_OR_RETURN(bool found, comp->tree->Find(key, &entry));
    if (!found) continue;
    std::string_view raw = entry.value();
    if (raw.empty()) return Status::Corruption("empty LSM disk entry");
    if (raw[0] == kAntimatter) return false;
    if (value) AX_RETURN_NOT_OK(DecodeDiskEntry(raw, value));
    return true;
  }
  return false;
}

Status LsmBTree::Format::Write(const std::vector<SnapshotEntry>& rows,
                               const std::string& base,
                               DiskComponent* comp) const {
  comp->bloom = BloomFilter(std::max<uint64_t>(rows.size(), 16),
                            options.bloom_bits_per_key);
  for (const auto& row : rows) comp->bloom.Add(row.key);

  std::vector<adm::Value> records;
  if (options.storage_format == StorageFormat::kColumnar &&
      DecodeColumnarRecords(rows, &records)) {
    comp->data_path = base + ".col";
    ColumnarComponentWriter writer(comp->data_path);
    for (size_t i = 0; i < rows.size(); i++) {
      writer.Add(rows[i].key, rows[i].antimatter, std::move(records[i]));
    }
    AX_ASSIGN_OR_RETURN(auto wrote, writer.Finish());
    AX_ASSIGN_OR_RETURN(comp->col, ColumnarReader::Open(comp->data_path));
    comp->bytes = wrote.file_bytes;
    ColumnarComponentsCounter()->Add(1);
  } else {
    comp->data_path = base + ".cmp";
    AX_ASSIGN_OR_RETURN(auto builder, BTreeBuilder::Create(comp->data_path));
    for (const auto& row : rows) {
      AX_RETURN_NOT_OK(builder->Add(
          row.key, EncodeDiskValue(row.value, row.antimatter,
                                   options.compress_values)));
    }
    AX_ASSIGN_OR_RETURN(auto meta, builder->Finish());
    AX_ASSIGN_OR_RETURN(comp->tree,
                        BTree::Open(comp->data_path, options.cache));
    comp->bytes = static_cast<uint64_t>(meta.page_count) * kPageSize;
  }
  // The Bloom file is written last: it is the flush commit point that
  // Open() uses to distinguish complete components from torn flushes.
  return fs::WriteStringToFile(comp->commit_path, comp->bloom.Serialize());
}

Status LsmBTree::Format::BuildFlush(const Mem& mem, bool has_older,
                                    const std::string& base,
                                    DiskComponent* out) const {
  std::vector<SnapshotEntry> rows;
  rows.reserve(mem.size());
  for (const auto& [key, entry] : mem) {
    if (entry.antimatter && !has_older) continue;  // nothing below to hide
    rows.push_back(SnapshotEntry{key, entry.antimatter, entry.value});
  }
  return Write(rows, base, out);
}

Status LsmBTree::Format::BuildMerge(const std::vector<ComponentPtr>& victims,
                                    bool includes_oldest,
                                    const std::string& base,
                                    DiskComponent* out) const {
  // Buffer the merged rows, then write them out in the configured format
  // (this is what converges a mixed row/columnar stack: the merge output is
  // a single component in the tree's current format).
  AX_ASSIGN_OR_RETURN(auto rows, BuildMergedRows(victims, includes_oldest));
  return Write(rows, base, out);
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

// One merge input: the copied mutable memory component, a pinned immutable
// memory component, or a pinned disk component. Each serves the entry it is
// positioned on in place where it can.
struct LsmBTree::Iterator::Source {
  enum class Kind { kSnapshot, kFrozen, kRow, kColumnar };
  Kind kind;
  // kSnapshot: the mutable memory component, copied under the tree's lock.
  std::vector<std::pair<std::string, MemEntry>> snapshot;
  size_t idx = 0;
  // kFrozen: an immutable memory component, read in place under its pin.
  Lifecycle::FrozenPtr frozen;
  Format::Mem::const_iterator pos;
  // kRow and kColumnar: a disk component. `comp` is declared before `disk`
  // so the leaf pin is dropped before the component can close its tree.
  ComponentPtr comp;
  std::optional<BTree::Iterator> disk;
  // kColumnar: all columns preloaded so full scans and merges materialize
  // from memory instead of per-row preads.
  std::vector<ColumnData> cols;
  uint64_t row = 0;
  // A decompressed or re-serialized (columnar) value.
  std::string scratch;

  explicit Source(Kind k) : kind(k) {}

  bool valid() const {
    switch (kind) {
      case Kind::kSnapshot: return idx < snapshot.size();
      case Kind::kFrozen: return pos != frozen->mem.end();
      case Kind::kRow: return disk->Valid();
      case Kind::kColumnar: return row < comp->col->row_count();
    }
    return false;
  }
  std::string_view key() const {
    switch (kind) {
      case Kind::kSnapshot: return snapshot[idx].first;
      case Kind::kFrozen: return pos->first;
      case Kind::kRow: return disk->key();
      case Kind::kColumnar: return comp->col->key(row);
    }
    return {};
  }
  bool antimatter() const {
    switch (kind) {
      case Kind::kSnapshot: return snapshot[idx].second.antimatter;
      case Kind::kFrozen: return pos->second.antimatter;
      case Kind::kRow: return DiskEntryIsAntimatter(disk->value());
      case Kind::kColumnar: return comp->col->antimatter(row);
    }
    return false;
  }
  Result<std::string_view> value() {
    switch (kind) {
      case Kind::kSnapshot: return std::string_view(snapshot[idx].second.value);
      case Kind::kFrozen: return std::string_view(pos->second.value);
      case Kind::kRow: return DiskEntryView(disk->value(), &scratch);
      case Kind::kColumnar: {
        AX_ASSIGN_OR_RETURN(adm::Value record,
                            comp->col->MaterializeRow(cols, row));
        scratch.clear();
        adm::SerializeValue(record, &scratch);
        return std::string_view(scratch);
      }
    }
    return Status::Internal("bad LSM iterator source");
  }
  Status Next() {
    switch (kind) {
      case Kind::kSnapshot: idx++; break;
      case Kind::kFrozen: ++pos; break;
      case Kind::kRow: return disk->Next();
      case Kind::kColumnar: row++; break;
    }
    return Status::OK();
  }
  Status Seek(const std::string& k) {
    switch (kind) {
      case Kind::kSnapshot:
        idx = static_cast<size_t>(
            std::lower_bound(snapshot.begin(), snapshot.end(), k,
                             [](const auto& a, const std::string& b) {
                               return a.first < b;
                             }) -
            snapshot.begin());
        break;
      case Kind::kFrozen: pos = frozen->mem.lower_bound(k); break;
      case Kind::kRow: return disk->Seek(k);
      case Kind::kColumnar: row = comp->col->LowerBound(k); break;
    }
    return Status::OK();
  }
  Status SeekToFirst() {
    switch (kind) {
      case Kind::kSnapshot: idx = 0; break;
      case Kind::kFrozen: pos = frozen->mem.begin(); break;
      case Kind::kRow: return disk->SeekToFirst();
      case Kind::kColumnar: row = 0; break;
    }
    return Status::OK();
  }

  static std::unique_ptr<Source> ForFrozen(Lifecycle::FrozenPtr imm) {
    auto src = std::make_unique<Source>(Kind::kFrozen);
    src->frozen = std::move(imm);
    src->pos = src->frozen->mem.end();
    return src;
  }
  static Result<std::unique_ptr<Source>> ForComponent(ComponentPtr c) {
    auto src =
        std::make_unique<Source>(c->columnar() ? Kind::kColumnar : Kind::kRow);
    src->comp = std::move(c);
    if (src->kind == Kind::kColumnar) {
      AX_ASSIGN_OR_RETURN(src->cols, src->comp->col->ReadAllColumns());
    } else {
      src->disk.emplace(src->comp->tree->NewIterator());
    }
    return src;
  }
};

LsmBTree::Iterator::Iterator(std::vector<std::unique_ptr<Source>> sources,
                             bool surface_antimatter)
    : sources_(std::move(sources)), surface_antimatter_(surface_antimatter) {}
LsmBTree::Iterator::Iterator(Iterator&&) noexcept = default;
LsmBTree::Iterator& LsmBTree::Iterator::operator=(Iterator&&) noexcept =
    default;
LsmBTree::Iterator::~Iterator() = default;

Status LsmBTree::Iterator::Seek(const std::string& key) {
  valid_ = false;
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->Seek(key));
  return Settle();
}

Status LsmBTree::Iterator::SeekToFirst() {
  valid_ = false;
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->SeekToFirst());
  return Settle();
}

Status LsmBTree::Iterator::Next() {
  if (!valid_) return Status::OK();
  valid_ = false;
  AX_RETURN_NOT_OK(StepPastKey());
  return Settle();
}

Status LsmBTree::Iterator::StepPastKey() {
  for (auto& s : sources_) {
    while (s->valid() && s->key() == key_) AX_RETURN_NOT_OK(s->Next());
  }
  return Status::OK();
}

Status LsmBTree::Iterator::Settle() {
  while (true) {
    Source* winner = nullptr;
    std::string_view min_key;
    for (const auto& s : sources_) {  // newest first: ties keep the newer
      if (!s->valid()) continue;
      std::string_view k = s->key();
      if (winner == nullptr || k < min_key) {
        winner = s.get();
        min_key = k;
      }
    }
    if (winner == nullptr) return Status::OK();  // exhausted
    key_.assign(min_key);
    antimatter_ = winner->antimatter();
    if (!antimatter_) {
      AX_ASSIGN_OR_RETURN(value_, winner->value());
      valid_ = true;
      return Status::OK();
    }
    if (surface_antimatter_) {
      value_ = {};
      valid_ = true;
      return Status::OK();
    }
    AX_RETURN_NOT_OK(StepPastKey());  // deleted: try the next key
  }
}

Result<LsmBTree::Iterator> LsmBTree::NewIterator() const {
  using Source = Iterator::Source;
  std::vector<std::unique_ptr<Source>> sources;
  auto mem_src = std::make_unique<Source>(Source::Kind::kSnapshot);
  Lifecycle::Stack stack = life_.Pin([&](const Format::Mem& mem) {
    mem_src->snapshot.assign(mem.begin(), mem.end());
  });
  if (!mem_src->snapshot.empty()) sources.push_back(std::move(mem_src));
  for (const auto& imm : stack.immutables) {  // newest first, like disk
    sources.push_back(Source::ForFrozen(imm));
  }
  for (const auto& comp : stack.disk) {
    AX_ASSIGN_OR_RETURN(auto src, Source::ForComponent(comp));
    sources.push_back(std::move(src));
  }
  return Iterator(std::move(sources), /*surface_antimatter=*/false);
}

LsmBTree::ScanSnapshot LsmBTree::GetScanSnapshot() const {
  ScanSnapshot snap;
  Format::Mem merged;
  Lifecycle::Stack stack =
      life_.Pin([&](const Format::Mem& mem) { merged = mem; });
  // Fold immutable memory components under the mutable one, newest wins
  // (map::insert keeps the existing — newer — entry on key collision).
  for (const auto& imm : stack.immutables) {
    merged.insert(imm->mem.begin(), imm->mem.end());
  }
  snap.mem.reserve(merged.size());
  for (const auto& [key, entry] : merged) {
    snap.mem.push_back(SnapshotEntry{key, entry.antimatter, entry.value});
  }
  for (const auto& comp : stack.disk) {
    ComponentRef ref;
    ref.keepalive = comp;
    if (comp->columnar()) {
      ref.columnar = comp->col.get();
    } else {
      ref.tree = comp->tree.get();
    }
    snap.components.push_back(std::move(ref));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

Result<std::vector<LsmBTree::SnapshotEntry>> LsmBTree::BuildMergedRows(
    const std::vector<ComponentPtr>& victims, bool includes_oldest) {
  // Merge the victim components only. Victims are pinned by shared_ptr and
  // immutable, so no lock is needed. A run that reaches the oldest
  // component drops its deletes; any other keeps them to hide older rows.
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  for (const auto& comp : victims) {
    AX_ASSIGN_OR_RETURN(auto src, Iterator::Source::ForComponent(comp));
    sources.push_back(std::move(src));
  }
  Iterator it(std::move(sources), /*surface_antimatter=*/!includes_oldest);
  AX_RETURN_NOT_OK(it.SeekToFirst());
  std::vector<SnapshotEntry> rows;
  while (it.Valid()) {
    rows.push_back(
        SnapshotEntry{it.key(), it.antimatter(), std::string(it.value())});
    AX_RETURN_NOT_OK(it.Next());
  }
  return rows;
}

LsmStats LsmBTree::stats() const {
  return life_.Stats([](const DiskComponent& comp, LsmStats* s) {
    if (comp.columnar()) s->columnar_components++;
    s->disk_entries += comp.entries();
  });
}

}  // namespace asterix::storage
