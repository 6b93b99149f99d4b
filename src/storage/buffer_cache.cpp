#include "storage/buffer_cache.h"

#include <cstring>

namespace asterix::storage {

namespace {
uint64_t Key(FileId f, PageNo p) {
  return (static_cast<uint64_t>(f) << 32) | p;
}
}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    if (cache_) cache_->Unpin(shard_, slot_);
    cache_ = o.cache_;
    shard_ = o.shard_;
    slot_ = o.slot_;
    data_ = o.data_;
    o.cache_ = nullptr;
    o.data_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() {
  if (cache_) cache_->Unpin(shard_, slot_);
}

void PageHandle::MarkDirty() {
  if (cache_) cache_->MarkDirtySlot(shard_, slot_);
}

BufferCache::BufferCache(size_t num_frames, size_t num_shards)
    : capacity_(num_frames) {
  if (num_shards == 0) num_shards = num_frames < 256 ? 1 : 8;
  if (num_shards > num_frames) num_shards = 1;
  size_t per_shard = num_frames / num_shards;
  auto& registry = metrics::Registry::Global();
  for (size_t s = 0; s < num_shards; s++) {
    auto shard = std::make_unique<Shard>();
    const std::string scope = "shard" + std::to_string(s);
    shard->m_hits = registry.GetCounter("storage.buffer_cache.hits", scope);
    shard->m_misses = registry.GetCounter("storage.buffer_cache.misses", scope);
    shard->m_evictions =
        registry.GetCounter("storage.buffer_cache.evictions", scope);
    shard->m_writebacks =
        registry.GetCounter("storage.buffer_cache.writebacks", scope);
    size_t count = per_shard + (s < num_frames % num_shards ? 1 : 0);
    std::lock_guard<std::mutex> lock(shard->mu);  // satisfies GUARDED_BY
    shard->frames.resize(count);
    for (size_t i = 0; i < count; i++) {
      shard->frames[i].data = std::make_unique<char[]>(kPageSize);
      shard->frames[i].node = shard->lru.insert(shard->lru.end(), i);
    }
    shards_.push_back(std::move(shard));
  }
}

BufferCache::~BufferCache() {
  // Flush all dirty frames on teardown (best effort).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& f : shard->frames) {
      if (f.used && f.dirty && f.file_entry) {
        // axlint: allow(must-check): teardown flush is best-effort by design
        (void)f.file_entry->file->WriteAt(
            static_cast<uint64_t>(f.page) * kPageSize, kPageSize, f.data.get());
      }
    }
  }
}

size_t BufferCache::ShardOf(FileId file, PageNo page) const {
  uint64_t h = Key(file, page) * 0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>((h >> 32) % shards_.size());
}

Result<BufferCache::FileEntryPtr> BufferCache::LookupFile(FileId id) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  auto it = files_.find(id);
  if (it == files_.end()) return Status::NotFound("unknown file id");
  return it->second;
}

Result<FileId> BufferCache::RegisterFile(const std::string& path,
                                         bool writable) {
  std::unique_ptr<File> file;
  if (fs::Exists(path)) {
    AX_ASSIGN_OR_RETURN(file, File::Open(path, writable));
  } else if (writable) {
    AX_ASSIGN_OR_RETURN(file, File::Create(path));
  } else {
    return Status::NotFound("no such file '" + path + "'");
  }
  auto entry = std::make_shared<FileEntry>();
  entry->page_count = static_cast<PageNo>(file->size() / kPageSize);
  entry->file = std::move(file);
  entry->writable = writable;
  std::lock_guard<std::mutex> lock(files_mu_);
  FileId id = next_file_id_++;
  files_.emplace(id, std::move(entry));
  return id;
}

Status BufferCache::UnregisterFile(FileId id) {
  FileEntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    auto it = files_.find(id);
    if (it == files_.end()) return Status::NotFound("unknown file id");
    entry = it->second;
    files_.erase(it);
  }
  // Flush + invalidate this file's frames in every shard.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (size_t slot = 0; slot < shard->frames.size(); slot++) {
      Frame& f = shard->frames[slot];
      if (f.used && f.file == id) {
        if (f.pins > 0) {
          return Status::Internal("unregistering file with pinned pages");
        }
        if (f.dirty) {
          AX_RETURN_NOT_OK(WriteBackLocked(f));
          shard->writebacks++;
          shard->m_writebacks->Add(1);
        }
        shard->page_map.erase(Key(f.file, f.page));
        f.used = false;
        f.dirty = false;
        f.file_entry.reset();
      }
    }
  }
  return Status::OK();
}

Result<PageHandle> BufferCache::PinInternal(const FileEntryPtr& entry,
                                            FileId file, PageNo page_no,
                                            bool fresh_zeroed) {
  size_t shard_idx = ShardOf(file, page_no);
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto key = Key(file, page_no);
  auto it = shard.page_map.find(key);
  if (it != shard.page_map.end()) {
    shard.hits++;
    shard.m_hits->Add(1);
    size_t slot = it->second;
    Frame& f = shard.frames[slot];
    if (f.pins == 0) shard.pinned.splice(shard.pinned.end(), shard.lru, f.node);
    f.pins++;
    return PageHandle(this, shard_idx, slot, f.data.get());
  }
  shard.misses++;
  shard.m_misses->Add(1);
  AX_ASSIGN_OR_RETURN(size_t slot, GrabFrameLocked(shard));
  Frame& f = shard.frames[slot];
  if (fresh_zeroed) {
    std::memset(f.data.get(), 0, kPageSize);
  } else if (Status st = entry->file->ReadAt(
                 static_cast<uint64_t>(page_no) * kPageSize, kPageSize,
                 f.data.get());
             !st.ok()) {
    // The frame is free again: first in line for the next miss.
    shard.lru.splice(shard.lru.begin(), shard.pinned, f.node);
    return st;
  }
  f.file = file;
  f.page = page_no;
  f.file_entry = entry;
  f.used = true;
  f.dirty = fresh_zeroed;
  f.pins = 1;
  shard.page_map[key] = slot;
  return PageHandle(this, shard_idx, slot, f.data.get());
}

Result<FileRef> BufferCache::GetFileRef(FileId file) const {
  AX_ASSIGN_OR_RETURN(FileEntryPtr entry, LookupFile(file));
  FileRef ref;
  ref.entry_ = std::move(entry);
  ref.id_ = file;
  return ref;
}

Result<PageHandle> BufferCache::Pin(FileId file, PageNo page_no) {
  AX_ASSIGN_OR_RETURN(FileEntryPtr entry, LookupFile(file));
  if (page_no >= entry->page_count.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "page " + std::to_string(page_no) + " out of range (file has " +
        std::to_string(entry->page_count.load()) + " pages)");
  }
  return PinInternal(entry, file, page_no, /*fresh_zeroed=*/false);
}

Result<PageHandle> BufferCache::Pin(const FileRef& file, PageNo page_no) {
  if (!file.valid()) return Status::InvalidArgument("invalid file reference");
  if (page_no >= file.entry_->page_count.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("page " + std::to_string(page_no) +
                                   " out of range");
  }
  return PinInternal(file.entry_, file.id_, page_no, /*fresh_zeroed=*/false);
}

PageNo BufferCache::PageCount(const FileRef& file) const {
  return file.valid() ? file.entry_->page_count.load(std::memory_order_acquire)
                      : 0;
}

Result<std::pair<PageNo, PageHandle>> BufferCache::NewPage(
    const FileRef& file) {
  if (!file.valid()) return Status::InvalidArgument("invalid file reference");
  return NewPageInternal(file.entry_, file.id_);
}

Result<std::pair<PageNo, PageHandle>> BufferCache::NewPage(FileId file) {
  AX_ASSIGN_OR_RETURN(FileEntryPtr entry, LookupFile(file));
  return NewPageInternal(entry, file);
}

Result<std::pair<PageNo, PageHandle>> BufferCache::NewPageInternal(
    const FileEntryPtr& entry, FileId file) {
  if (!entry->writable) return Status::InvalidArgument("file not writable");
  PageNo page_no;
  {
    std::lock_guard<std::mutex> grow(entry->grow_mu);
    page_no = entry->page_count.load(std::memory_order_relaxed);
    // Extend the file with a zero page immediately so PageCount stays honest.
    static const char zeros[kPageSize] = {0};
    AX_RETURN_NOT_OK(entry->file->WriteAt(
        static_cast<uint64_t>(page_no) * kPageSize, kPageSize, zeros));
    entry->page_count.store(page_no + 1, std::memory_order_release);
  }
  AX_ASSIGN_OR_RETURN(PageHandle handle,
                      PinInternal(entry, file, page_no, /*fresh_zeroed=*/true));
  return std::make_pair(page_no, std::move(handle));
}

Status BufferCache::FlushFile(FileId file) {
  AX_ASSIGN_OR_RETURN(FileEntryPtr entry, LookupFile(file));
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& f : shard->frames) {
      if (f.used && f.file == file && f.dirty) {
        AX_RETURN_NOT_OK(WriteBackLocked(f));
        shard->writebacks++;
        shard->m_writebacks->Add(1);
        f.dirty = false;
      }
    }
  }
  return entry->file->Sync();
}

Result<PageNo> BufferCache::PageCount(FileId file) const {
  AX_ASSIGN_OR_RETURN(FileEntryPtr entry, LookupFile(file));
  return entry->page_count.load(std::memory_order_acquire);
}

BufferCacheStats BufferCache::stats() const {
  BufferCacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.dirty_writebacks += shard->writebacks;
  }
  return s;
}

void BufferCache::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = shard->misses = shard->evictions = shard->writebacks = 0;
  }
}

void BufferCache::Unpin(size_t shard_idx, size_t slot) {
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  Frame& f = shard.frames[slot];
  f.pins--;
  // Most-recently used at the back.
  if (f.pins == 0) shard.lru.splice(shard.lru.end(), shard.pinned, f.node);
}

void BufferCache::MarkDirtySlot(size_t shard_idx, size_t slot) {
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.frames[slot].dirty = true;
}

Result<size_t> BufferCache::GrabFrameLocked(Shard& shard) {
  if (shard.lru.empty()) {
    return Status::ResourceExhausted("buffer cache: all frames pinned");
  }
  size_t slot = shard.lru.front();
  Frame& f = shard.frames[slot];
  if (f.used) {
    shard.evictions++;
    shard.m_evictions->Add(1);
    if (f.dirty) {
      AX_RETURN_NOT_OK(WriteBackLocked(f));
      shard.writebacks++;
      shard.m_writebacks->Add(1);
      f.dirty = false;
    }
    shard.page_map.erase(Key(f.file, f.page));
    f.used = false;
    f.file_entry.reset();
  }
  shard.pinned.splice(shard.pinned.end(), shard.lru, f.node);
  return slot;
}

Status BufferCache::WriteBackLocked(Frame& f) {
  if (!f.file_entry) {
    return Status::Internal("dirty frame for unregistered file");
  }
  return f.file_entry->file->WriteAt(static_cast<uint64_t>(f.page) * kPageSize,
                                     kPageSize, f.data.get());
}

}  // namespace asterix::storage
