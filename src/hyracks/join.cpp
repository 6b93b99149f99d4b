#include "hyracks/join.h"

#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
constexpr size_t kJoinPartitions = 16;

metrics::Counter* JoinPartitionsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.join.partitions_spilled");
  return c;
}
metrics::Counter* JoinSpillBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.join.spill_bytes");
  return c;
}
}  // namespace

HashJoinOp::HashJoinOp(StreamPtr left, StreamPtr right,
                       std::vector<TupleEval> left_keys,
                       std::vector<TupleEval> right_keys, JoinType type,
                       size_t memory_budget_bytes, TempFileManager* tmp,
                       TupleEval residual, size_t right_arity_hint)
    : left_(std::move(left)), right_(std::move(right)),
      left_keys_(std::move(left_keys)), right_keys_(std::move(right_keys)),
      type_(type), budget_(memory_budget_bytes), tmp_(tmp),
      residual_(std::move(residual)), right_arity_(right_arity_hint),
      table_(right_keys_.size()) {}

HashJoinOp::~HashJoinOp() {
  probe_reader_.reset();  // lets the reader delete its file first
  CleanupSpillFiles();
}

void HashJoinOp::CleanupSpillFiles() {
  // Abort-path safety net: most files are gone already (RunReader deletes
  // on destruction once opened), so failures here are expected and ignored.
  for (const auto& p : owned_spill_paths_) {
    // The file is usually gone already (readers delete on consumption).
    // axlint: allow(must-check): best-effort abort-path cleanup
    (void)fs::RemoveFile(p);
  }
  owned_spill_paths_.clear();
}

Status HashJoinOp::OpenStream(TupleStream* s) {
  AX_RETURN_NOT_OK(s->Open());
  if (s == left_.get()) left_open_ = true;
  if (s == right_.get()) right_open_ = true;
  return Status::OK();
}

Status HashJoinOp::CloseStream(TupleStream* s) {
  if (s == left_.get()) left_open_ = false;
  if (s == right_.get()) right_open_ = false;
  return s->Close();
}

Status HashJoinOp::EvalKey(const Tuple& t, const std::vector<TupleEval>& evals,
                           bool* has_unknown) {
  key_.clear();
  for (const auto& k : evals) {
    AX_ASSIGN_OR_RETURN(adm::Value v, k(t));
    if (v.is_unknown()) {
      *has_unknown = true;
      return Status::OK();
    }
    key_.push_back(std::move(v));
  }
  *has_unknown = false;
  return Status::OK();
}

void HashJoinOp::ReleaseTable() {
  table_.Clear();
  std::vector<Tuple>().swap(build_);
  std::vector<uint32_t>().swap(next_build_);
  std::vector<uint32_t>().swap(first_build_);
}

Result<bool> HashJoinOp::BuildOrPartition(TupleStream* probe,
                                          TupleStream* build, int level) {
  if (level > static_cast<int>(stats_.recursion_depth)) {
    stats_.recursion_depth = static_cast<size_t>(level);
  }
  // Grace partitioning only helps when keys spread rows across partitions:
  // with no equi keys (every row hashes identically) or past the recursion
  // cap (pathological skew), degrade to an over-budget in-memory build
  // instead of re-spilling the same rows forever.
  const bool can_partition = !right_keys_.empty() && level < 4;
  std::vector<std::unique_ptr<RunWriter>> build_parts, probe_parts;
  size_t table_bytes = 0;

  AX_RETURN_NOT_OK(OpenStream(build));
  // Batched build drain: one virtual NextBatch per frame of build input.
  Batch batch;
  while (true) {
    if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, build->NextBatch(&batch));
    if (!more) break;
    for (size_t bi = 0; bi < batch.size(); bi++) {
      Tuple& t = batch[bi];
      bool unknown = false;
      AX_RETURN_NOT_OK(EvalKey(t, right_keys_, &unknown));
      if (unknown) continue;  // unknown keys never match
      if (right_arity_ == 0) right_arity_ = t.arity();
      const uint64_t hash = HashKey(key_);
      if (!build_parts.empty()) {
        AX_RETURN_NOT_OK(build_parts[SpillPartitionOf(hash, level,
                                                      kJoinPartitions)]
                             ->Write(t));
        continue;
      }
      uint32_t id = table_.Find(key_, hash);
      // Uniform grant accounting: the tuple's in-memory footprint plus the
      // hash-entry bookkeeping, plus the key values for a new key.
      size_t entry_bytes = t.ApproxBytes() + kHashEntryOverheadBytes;
      if (id == KeyTable::kAbsent) {
        for (const auto& v : key_) entry_bytes += v.ByteSize();
      }
      if (can_partition && table_bytes + entry_bytes > budget_) {
        // Switch to grace mode: open all partitions and dump the table.
        stats_.partitions_spilled += kJoinPartitions;
        JoinPartitionsCounter()->Add(kJoinPartitions);
        for (size_t p = 0; p < kJoinPartitions; p++) {
          AX_ASSIGN_OR_RETURN(auto bw,
                              RunWriter::Create(tmp_->NextPath("joinbuild")));
          AX_ASSIGN_OR_RETURN(auto pw,
                              RunWriter::Create(tmp_->NextPath("joinprobe")));
          owned_spill_paths_.push_back(bw->path());
          owned_spill_paths_.push_back(pw->path());
          build_parts.push_back(std::move(bw));
          probe_parts.push_back(std::move(pw));
        }
        for (uint32_t k = 0; k < table_.size(); k++) {
          RunWriter* w = build_parts[SpillPartitionOf(table_.hash(k), level,
                                                      kJoinPartitions)]
                             .get();
          for (uint32_t b = first_build_[k]; b != KeyTable::kAbsent;
               b = next_build_[b]) {
            AX_RETURN_NOT_OK(w->Write(build_[b]));
          }
        }
        ReleaseTable();
        AX_RETURN_NOT_OK(
            build_parts[SpillPartitionOf(hash, level, kJoinPartitions)]
                ->Write(t));
        continue;
      }
      if (id == KeyTable::kAbsent) {
        id = table_.Insert(key_, hash);
        first_build_.push_back(KeyTable::kAbsent);
      }
      table_bytes += entry_bytes;
      next_build_.push_back(first_build_[id]);
      first_build_[id] = static_cast<uint32_t>(build_.size());
      // The batch slot is ours to cannibalize: move, don't copy.
      build_.push_back(std::move(t));
    }
  }
  AX_RETURN_NOT_OK(CloseStream(build));

  AX_RETURN_NOT_OK(OpenStream(probe));
  if (build_parts.empty()) {
    probe_ = probe;  // the probe streams from here, batch by batch
    return false;
  }
  // Grace mode: route the whole probe input to the partitions' probe files.
  while (true) {
    if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, probe->NextBatch(&batch));
    if (!more) break;
    for (size_t bi = 0; bi < batch.size(); bi++) {
      const Tuple& t = batch[bi];
      bool unknown = false;
      AX_RETURN_NOT_OK(EvalKey(t, left_keys_, &unknown));
      if (unknown) {
        // Never matches, but a left-outer join owes it a padded row: the
        // probe of partition 0 emits that (its key is unknown there too).
        if (type_ == JoinType::kLeftOuter) {
          AX_RETURN_NOT_OK(probe_parts[0]->Write(t));
        }
        continue;
      }
      AX_RETURN_NOT_OK(probe_parts[SpillPartitionOf(HashKey(key_), level,
                                                    kJoinPartitions)]
                           ->Write(t));
    }
  }
  AX_RETURN_NOT_OK(CloseStream(probe));
  for (size_t p = 0; p < kJoinPartitions; p++) {
    AX_RETURN_NOT_OK(build_parts[p]->Finish());
    AX_RETURN_NOT_OK(probe_parts[p]->Finish());
    uint64_t spilled =
        build_parts[p]->bytes_written() + probe_parts[p]->bytes_written();
    stats_.bytes_spilled += spilled;
    JoinSpillBytesCounter()->Add(spilled);
    pending_.push_back(
        Partition{probe_parts[p]->path(), build_parts[p]->path(), level + 1});
  }
  return true;
}

Status HashJoinOp::Open() {
  // Partition pairs, if any, are joined later, one at a time, as the probe
  // loop reaches them (AdvanceProbe).
  return BuildOrPartition(left_.get(), right_.get(), 0).status();
}

Status HashJoinOp::EndProbeSource() {
  Status st = Status::OK();
  if (probe_ == left_.get()) st = CloseStream(left_.get());
  probe_ = nullptr;
  probe_reader_.reset();  // deletes the consumed partition file
  ReleaseTable();
  return st;
}

Result<bool> HashJoinOp::AdvanceProbe() {
  while (true) {
    if (in_pos_ >= in_.size()) {
      if (probe_ == nullptr) {
        // Between sources: join the next pending partition pair, if any.
        if (pending_.empty()) return false;
        if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
        Partition part = pending_.back();
        pending_.pop_back();
        AX_ASSIGN_OR_RETURN(auto probe_reader, RunReader::Open(part.probe_path));
        probe_reader->SetQueryContext(query_context());
        AX_ASSIGN_OR_RETURN(auto build_reader, RunReader::Open(part.build_path));
        AX_ASSIGN_OR_RETURN(bool partitioned,
                            BuildOrPartition(probe_reader.get(),
                                             build_reader.get(), part.level));
        if (!partitioned) probe_reader_ = std::move(probe_reader);
        continue;
      }
      if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
      in_pos_ = 0;
      AX_ASSIGN_OR_RETURN(bool more, probe_->NextBatch(&in_));
      if (!more) {
        in_.Clear();
        AX_RETURN_NOT_OK(EndProbeSource());
      }
      continue;
    }
    const Tuple& t = in_[in_pos_];
    bool unknown = false;
    AX_RETURN_NOT_OK(EvalKey(t, left_keys_, &unknown));
    if (unknown) {
      if (type_ != JoinType::kLeftOuter) {
        in_pos_++;  // unknown keys never match
        continue;
      }
      match_ = KeyTable::kAbsent;
    } else {
      uint32_t id = table_.Find(key_, HashKey(key_));
      match_ = id == KeyTable::kAbsent ? KeyTable::kAbsent : first_build_[id];
    }
    matched_ = false;
    has_current_ = true;
    return true;
  }
}

Status HashJoinOp::Probe(Batch* out) {
  out->Clear();
  // Each iteration emits at most one result, so the batch never overflows.
  while (!out->full()) {
    if (!has_current_) {
      AX_ASSIGN_OR_RETURN(bool more, AdvanceProbe());
      if (!more) break;
    }
    Tuple& t = in_[in_pos_];
    if (match_ != KeyTable::kAbsent) {
      AX_RETURN_NOT_OK(PollAlive());
      const Tuple& bt = build_[match_];
      match_ = next_build_[match_];
      Tuple* slot = out->Add();
      if (type_ == JoinType::kLeftSemi && !residual_) {
        // Existence is enough, and this is the probe tuple's last use.
        slot->fields.swap(t.fields);
        FinishProbeTuple();
        continue;
      }
      // Copy, not move: `t` pairs with every match and `bt` stays in the
      // table for later probes.
      slot->fields.reserve(t.arity() + bt.arity());
      slot->fields.insert(slot->fields.end(), t.fields.begin(), t.fields.end());
      slot->fields.insert(slot->fields.end(), bt.fields.begin(),
                          bt.fields.end());
      if (residual_) {
        AX_ASSIGN_OR_RETURN(adm::Value pass, residual_(*slot));
        if (!IsTrue(pass)) {
          out->PopLast();
          continue;
        }
      }
      matched_ = true;
      if (type_ == JoinType::kLeftSemi) {
        slot->fields.resize(t.arity());  // keep the probe side only
        FinishProbeTuple();
      }
      continue;
    }
    // Match chain exhausted.
    if (type_ == JoinType::kLeftOuter && !matched_) {
      Tuple* slot = out->Add();
      slot->fields.swap(t.fields);  // last use of the probe tuple
      slot->fields.reserve(slot->arity() + right_arity_);
      for (size_t i = 0; i < right_arity_; i++) {
        slot->fields.push_back(adm::Value::Null());
      }
    }
    FinishProbeTuple();
  }
  return Status::OK();
}

Result<bool> HashJoinOp::NextBatch(Batch* out) {
  if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
  AX_RETURN_NOT_OK(Probe(out));
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status HashJoinOp::Close() {
  Status st = Status::OK();
  // A consumer that stops early (LIMIT) closes the join while the probe is
  // still open; closing it lets an exchange feeding it stop its producers.
  if (left_open_) st = CloseStream(left_.get());
  if (right_open_) {
    Status rs = CloseStream(right_.get());
    if (st.ok()) st = rs;
  }
  probe_ = nullptr;
  probe_reader_.reset();
  pending_.clear();
  ReleaseTable();
  CleanupSpillFiles();
  grant_.Release();
  return st;
}

}  // namespace asterix::hyracks
