#include "storage/lsm_rtree.h"

#include <algorithm>

#include "common/metrics.h"

namespace asterix::storage {

namespace {
LsmMetrics RTreeMetrics() {
  auto& registry = metrics::Registry::Global();
  LsmMetrics m;
  m.flushes = registry.GetCounter("storage.lsm_rtree.flushes");
  m.merges = registry.GetCounter("storage.lsm_rtree.merges");
  m.write_stalls = registry.GetCounter("storage.lsm_rtree.write_stalls");
  m.write_stall_ns = registry.GetCounter("storage.lsm_rtree.write_stall_ns");
  return m;
}
}  // namespace

LsmRTree::LsmRTree(const LsmRTreeOptions& options)
    : life_(options, Format{options}, RTreeMetrics()) {}

std::string LsmRTree::DeleteKey(const adm::Rectangle& mbr,
                                const std::string& payload) {
  // Identity of an entry: raw MBR bytes + payload. Only equality matters;
  // the deleted-key B+tree just needs a deterministic order.
  std::string key;
  key.append(reinterpret_cast<const char*>(&mbr.lo.x), 8);
  key.append(reinterpret_cast<const char*>(&mbr.lo.y), 8);
  key.append(reinterpret_cast<const char*>(&mbr.hi.x), 8);
  key.append(reinterpret_cast<const char*>(&mbr.hi.y), 8);
  key += payload;
  return key;
}

Result<std::unique_ptr<LsmRTree>> LsmRTree::Open(
    const LsmRTreeOptions& options) {
  auto tree = std::unique_ptr<LsmRTree>(new LsmRTree(options));
  AX_RETURN_NOT_OK(tree->life_.Open());
  return tree;
}

Status LsmRTree::Format::OpenComponent(DiskComponent* comp) const {
  AX_ASSIGN_OR_RETURN(comp->rtree, RTree::Open(comp->data_path, options.cache));
  AX_ASSIGN_OR_RETURN(comp->deleted,
                      BTree::Open(comp->commit_path, options.cache));
  comp->bytes =
      static_cast<uint64_t>(comp->rtree->meta().page_count) * kPageSize;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status LsmRTree::Insert(const adm::Rectangle& mbr, const std::string& payload) {
  return life_.Write([&](MemTable& mem, bool /*has_older*/) {
    // A re-insert cancels a pending in-memory delete of the same entry. (A
    // delete already frozen in an immutable component is older than this
    // insert, so layering keeps the new entry live regardless.)
    mem.deleted.erase(DeleteKey(mbr, payload));
    mem.inserts.push_back(SpatialEntry{mbr, payload});
    return 48 + payload.size();
  });
}

Status LsmRTree::Remove(const adm::Rectangle& mbr, const std::string& payload) {
  return life_.Write([&](MemTable& mem, bool has_older) -> size_t {
    // Annihilate a pending in-memory insert directly if present.
    auto it = std::find_if(mem.inserts.begin(), mem.inserts.end(),
                           [&](const SpatialEntry& e) {
                             return e.payload == payload && e.mbr == mbr;
                           });
    if (it != mem.inserts.end()) {
      mem.inserts.erase(it);
      if (!has_older) return 0;  // nothing older to hide
    }
    mem.deleted.insert(DeleteKey(mbr, payload));
    return 48 + payload.size();
  });
}

Result<std::vector<SpatialEntry>> LsmRTree::Query(
    const adm::Rectangle& query) const {
  std::vector<SpatialEntry> out;
  std::set<std::string> mem_deleted;
  Lifecycle::Stack stack = life_.Pin([&](const MemTable& mem) {
    for (const auto& e : mem.inserts) {
      if (e.mbr.Intersects(query)) out.push_back(e);
    }
    mem_deleted = mem.deleted;
  });
  const auto& imms = stack.immutables;
  const auto& comps = stack.disk;
  // An entry is live iff no strictly newer layer deleted it. Layers,
  // newest first: mutable mem, immutable mem components, disk components.
  auto deleted_in_imms = [&](const std::string& dk, size_t newer_than) {
    for (size_t j = 0; j < newer_than; j++) {
      if (imms[j]->mem.deleted.count(dk)) return true;
    }
    return false;
  };
  for (size_t k = 0; k < imms.size(); k++) {
    for (const auto& e : imms[k]->mem.inserts) {
      if (!e.mbr.Intersects(query)) continue;
      std::string dk = DeleteKey(e.mbr, e.payload);
      if (mem_deleted.count(dk) || deleted_in_imms(dk, k)) continue;
      out.push_back(e);
    }
  }
  for (size_t i = 0; i < comps.size(); i++) {
    AX_ASSIGN_OR_RETURN(auto candidates, comps[i]->rtree->SearchCollect(query));
    for (auto& cand : candidates) {
      std::string dk = DeleteKey(cand.mbr, cand.payload);
      if (mem_deleted.count(dk) || deleted_in_imms(dk, imms.size())) continue;
      bool dead = false;
      for (size_t j = 0; j < i && !dead; j++) {
        std::string unused;
        AX_ASSIGN_OR_RETURN(bool hit, comps[j]->deleted->Get(dk, &unused));
        dead = hit;
      }
      if (!dead) out.push_back(std::move(cand));
    }
  }
  return out;
}

Status LsmRTree::Format::Write(const std::vector<SpatialEntry>& inserts,
                               const std::set<std::string>& deleted,
                               const std::string& base,
                               DiskComponent* comp) const {
  comp->data_path = base + ".rt";
  AX_ASSIGN_OR_RETURN(auto rbuilder,
                      RTreeBuilder::Create(comp->data_path, options.point_mode));
  for (const auto& e : inserts) AX_RETURN_NOT_OK(rbuilder->Add(e.mbr, e.payload));
  AX_ASSIGN_OR_RETURN(auto rmeta, rbuilder->Finish());
  // The deleted-key tree is written last: it is the flush commit point
  // Open() checks when collecting torn flushes.
  AX_ASSIGN_OR_RETURN(auto dbuilder, BTreeBuilder::Create(comp->commit_path));
  for (const auto& dk : deleted) AX_RETURN_NOT_OK(dbuilder->Add(dk, ""));
  AX_ASSIGN_OR_RETURN(auto dmeta, dbuilder->Finish());
  (void)dmeta;
  AX_ASSIGN_OR_RETURN(comp->rtree, RTree::Open(comp->data_path, options.cache));
  AX_ASSIGN_OR_RETURN(comp->deleted,
                      BTree::Open(comp->commit_path, options.cache));
  comp->bytes = static_cast<uint64_t>(rmeta.page_count) * kPageSize;
  return Status::OK();
}

Status LsmRTree::Format::BuildFlush(const Mem& mem, bool has_older,
                                    const std::string& base,
                                    DiskComponent* out) const {
  // Deletes only need persisting when something older could hide a live
  // entry.
  const std::set<std::string> none;
  return Write(mem.inserts, has_older ? mem.deleted : none, base, out);
}

Status LsmRTree::Format::BuildMerge(const std::vector<ComponentPtr>& victims,
                                    bool includes_oldest,
                                    const std::string& base,
                                    DiskComponent* out) const {
  // Collect live entries: an entry of victim i survives unless deleted by a
  // strictly newer victim (i-1 .. 0).
  std::vector<SpatialEntry> live;
  adm::Rectangle everything{{-1e308, -1e308}, {1e308, 1e308}};
  for (size_t i = 0; i < victims.size(); i++) {
    AX_ASSIGN_OR_RETURN(auto entries,
                        victims[i]->rtree->SearchCollect(everything));
    for (auto& e : entries) {
      std::string dk = DeleteKey(e.mbr, e.payload);
      bool dead = false;
      for (size_t j = 0; j < i && !dead; j++) {
        std::string unused;
        AX_ASSIGN_OR_RETURN(bool hit, victims[j]->deleted->Get(dk, &unused));
        dead = hit;
      }
      if (!dead) live.push_back(std::move(e));
    }
  }
  // A run that reaches the oldest component has nothing below it to hide:
  // the victims' deletes annihilate. Otherwise every victim's deleted keys
  // must keep hiding entries in the older components. (Deletes pending in
  // memory components are newer layers; they mask the merged entries at
  // query time and flush into newer components.)
  std::set<std::string> deleted;
  if (!includes_oldest) {
    for (const auto& victim : victims) {
      auto it = victim->deleted->NewIterator();
      AX_RETURN_NOT_OK(it.SeekToFirst());
      while (it.Valid()) {
        deleted.emplace(it.key());
        AX_RETURN_NOT_OK(it.Next());
      }
    }
  }
  return Write(live, deleted, base, out);
}

LsmStats LsmRTree::stats() const {
  return life_.Stats([](const DiskComponent& comp, LsmStats* s) {
    s->disk_entries += comp.rtree->entry_count();
  });
}

}  // namespace asterix::storage
