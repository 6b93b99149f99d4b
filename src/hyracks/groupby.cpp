#include "hyracks/groupby.h"

#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
constexpr size_t kSpillPartitions = 16;

metrics::Counter* GroupBySpillPartitionsCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "hyracks.groupby.spill_partitions");
  return c;
}
metrics::Counter* GroupBySpillBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.groupby.spill_bytes");
  return c;
}

// Numeric addition preserving int64 when both sides are ints; durations
// sum to durations (temporal aggregation, the §V-D study's need).
adm::Value AddNumbers(const adm::Value& a, const adm::Value& b) {
  if (a.is_unknown()) return b;
  if (b.is_unknown()) return a;
  if (a.tag() == adm::TypeTag::kDuration && b.tag() == adm::TypeTag::kDuration) {
    return adm::Value::Duration(a.TemporalValue() + b.TemporalValue());
  }
  if (a.is_int() && b.is_int()) return adm::Value::Int(a.AsInt() + b.AsInt());
  return adm::Value::Double(a.AsNumber() + b.AsNumber());
}

bool Summable(const adm::Value& v) {
  return v.is_numeric() || v.tag() == adm::TypeTag::kDuration;
}
}  // namespace

HashGroupByOp::HashGroupByOp(StreamPtr child, std::vector<TupleEval> keys,
                             std::vector<AggSpec> aggs, AggPhase phase,
                             size_t memory_budget_bytes, TempFileManager* tmp)
    : child_(std::move(child)), keys_(std::move(keys)), aggs_(std::move(aggs)),
      phase_(phase), budget_(memory_budget_bytes), tmp_(tmp),
      table_(keys_.size()), state_arity_(0) {
  for (const auto& spec : aggs_) state_arity_ += PartialArity(spec.kind);
}

HashGroupByOp::~HashGroupByOp() { CleanupSpillFiles(); }

void HashGroupByOp::CleanupSpillFiles() {
  // Abort-path safety net: most files are gone already (RunReader deletes
  // on destruction once opened), so failures here are expected and ignored.
  for (const auto& p : owned_spill_paths_) {
    // The file is usually gone already (readers delete on consumption).
    // axlint: allow(must-check): best-effort abort-path cleanup
    (void)fs::RemoveFile(p);
  }
  owned_spill_paths_.clear();
}

size_t HashGroupByOp::PartialArity(AggKind kind) {
  return kind == AggKind::kAvg ? 2 : 1;
}

void HashGroupByOp::InitState(adm::Value* p) {
  for (const auto& spec : aggs_) {
    switch (spec.kind) {
      case AggKind::kCount: p[0] = adm::Value::Int(0); break;
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax: p[0] = adm::Value::Null(); break;
      case AggKind::kAvg:
        p[0] = adm::Value::Null();
        p[1] = adm::Value::Int(0);
        break;
      case AggKind::kCollect:
        p[0] = adm::Value::Int(static_cast<int64_t>(collected_.size()));
        collected_.emplace_back();
        break;
    }
    p += PartialArity(spec.kind);
  }
}

Status HashGroupByOp::AccumulateRaw(adm::Value* p, const Tuple& t,
                                    size_t* grown) {
  for (const AggSpec& spec : aggs_) {
    adm::Value arg;
    if (spec.arg) {
      AX_ASSIGN_OR_RETURN(arg, spec.arg(t));
    }
    switch (spec.kind) {
      case AggKind::kCount:
        if (!spec.arg || !arg.is_unknown()) {
          p[0] = adm::Value::Int(p[0].AsInt() + 1);
        }
        break;
      case AggKind::kSum:
        if (!arg.is_unknown() && Summable(arg)) p[0] = AddNumbers(p[0], arg);
        break;
      case AggKind::kMin:
        if (!arg.is_unknown() &&
            (p[0].is_unknown() || arg.Compare(p[0]) < 0)) {
          p[0] = std::move(arg);
        }
        break;
      case AggKind::kMax:
        if (!arg.is_unknown() &&
            (p[0].is_unknown() || arg.Compare(p[0]) > 0)) {
          p[0] = std::move(arg);
        }
        break;
      case AggKind::kAvg:
        if (!arg.is_unknown() && Summable(arg)) {
          p[0] = AddNumbers(p[0], arg);
          p[1] = adm::Value::Int(p[1].AsInt() + 1);
        }
        break;
      case AggKind::kCollect:
        if (!arg.is_missing()) {
          // Collected arrays are the one aggregate whose state grows with
          // input; charge the growth so the spill trigger sees it.
          *grown += arg.ByteSize();
          collected_[static_cast<size_t>(p[0].AsInt())].push_back(
              std::move(arg));
        }
        break;
    }
    p += PartialArity(spec.kind);
  }
  return Status::OK();
}

Status HashGroupByOp::MergePartial(adm::Value* p, const Tuple& t,
                                   size_t key_arity, size_t* grown) {
  size_t pos = key_arity;
  for (const AggSpec& spec : aggs_) {
    switch (spec.kind) {
      case AggKind::kCount:
      case AggKind::kSum:
        p[0] = AddNumbers(p[0], t.at(pos));
        break;
      case AggKind::kMin:
        if (!t.at(pos).is_unknown() &&
            (p[0].is_unknown() || t.at(pos).Compare(p[0]) < 0)) {
          p[0] = t.at(pos);
        }
        break;
      case AggKind::kMax:
        if (!t.at(pos).is_unknown() &&
            (p[0].is_unknown() || t.at(pos).Compare(p[0]) > 0)) {
          p[0] = t.at(pos);
        }
        break;
      case AggKind::kAvg:
        p[0] = AddNumbers(p[0], t.at(pos));
        p[1] = AddNumbers(p[1], t.at(pos + 1));
        break;
      case AggKind::kCollect: {
        const auto& incoming = t.at(pos);
        if (incoming.is_collection()) {
          // Merged-in partial arrays grow the state; charge them like
          // AccumulateRaw does.
          for (const auto& v : incoming.items()) *grown += v.ByteSize();
          auto& items = collected_[static_cast<size_t>(p[0].AsInt())];
          items.insert(items.end(), incoming.items().begin(),
                       incoming.items().end());
        }
        break;
      }
    }
    pos += PartialArity(spec.kind);
    p += PartialArity(spec.kind);
  }
  return Status::OK();
}

Status HashGroupByOp::Fold(adm::Value* state, const Tuple& t,
                           bool input_is_partial, size_t* grown) {
  return input_is_partial ? MergePartial(state, t, keys_.size(), grown)
                          : AccumulateRaw(state, t, grown);
}

void HashGroupByOp::AppendPartialState(adm::Value* p,
                                       std::vector<adm::Value>* fields) {
  for (const AggSpec& spec : aggs_) {
    if (spec.kind == AggKind::kCollect) {
      fields->push_back(adm::Value::Array(
          std::move(collected_[static_cast<size_t>(p[0].AsInt())])));
    } else {
      for (size_t i = 0; i < PartialArity(spec.kind); i++) {
        fields->push_back(std::move(p[i]));
      }
    }
    p += PartialArity(spec.kind);
  }
}

void HashGroupByOp::EmitGroup(std::span<adm::Value> key, adm::Value* p,
                              Tuple* out) {
  out->fields.clear();
  out->fields.reserve(key.size() + state_arity_);
  for (auto& v : key) out->fields.push_back(std::move(v));
  if (phase_ == AggPhase::kPartial) {
    AppendPartialState(p, &out->fields);
    return;
  }
  for (const AggSpec& spec : aggs_) {
    if (spec.kind == AggKind::kCollect) {
      out->fields.push_back(adm::Value::Array(
          std::move(collected_[static_cast<size_t>(p[0].AsInt())])));
    } else if (spec.kind != AggKind::kAvg) {
      out->fields.push_back(std::move(p[0]));
    } else if (p[0].is_unknown() || p[1].AsInt() == 0) {
      out->fields.push_back(adm::Value::Null());
    } else if (p[0].tag() == adm::TypeTag::kDuration) {
      out->fields.push_back(
          adm::Value::Duration(p[0].TemporalValue() / p[1].AsInt()));
    } else {
      out->fields.push_back(
          adm::Value::Double(p[0].AsNumber() / p[1].AsNumber()));
    }
    p += PartialArity(spec.kind);
  }
}

Status HashGroupByOp::ProcessStream(
    TupleStream* input, bool input_is_partial, int level,
    std::vector<std::unique_ptr<RunWriter>>* spills) {
  // Batched input drain: one virtual call per frame of input, both for the
  // live child stream and for spill-partition re-reads.
  Batch batch;
  while (true) {
    if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, input->NextBatch(&batch));
    if (!more) break;
    for (size_t bi = 0; bi < batch.size(); bi++) {
      AX_RETURN_NOT_OK(ProcessTuple(batch[bi], input_is_partial, level,
                                    spills));
    }
  }
  return Status::OK();
}

Status HashGroupByOp::ProcessTuple(
    const Tuple& t, bool input_is_partial, int level,
    std::vector<std::unique_ptr<RunWriter>>* spills) {
  const size_t key_arity = keys_.size();
  key_.clear();
  if (input_is_partial) {
    for (size_t i = 0; i < key_arity; i++) key_.push_back(t.at(i));
  } else {
    for (const auto& kv : keys_) {
      AX_ASSIGN_OR_RETURN(adm::Value v, kv(t));
      key_.push_back(std::move(v));
    }
  }
  const uint64_t hash = HashKey(key_);
  uint32_t id = table_.Find(key_, hash);
  size_t grown = 0;
  if (id == KeyTable::kAbsent) {
    if (table_bytes_ > budget_) {
      // Overflow: spill this tuple as a partial row (key ++ state) to the
      // partition of its key hash.
      const size_t collected_mark = collected_.size();
      spill_.resize(state_arity_);
      InitState(spill_.data());
      AX_RETURN_NOT_OK(Fold(spill_.data(), t, input_is_partial, &grown));
      Tuple row;
      row.fields.reserve(key_arity + state_arity_);
      for (auto& v : key_) row.fields.push_back(std::move(v));
      AppendPartialState(spill_.data(), &row.fields);
      collected_.resize(collected_mark);  // drop the spilled row's lists
      size_t part = SpillPartitionOf(hash, level, kSpillPartitions);
      if (spills->empty()) spills->resize(kSpillPartitions);
      if (!(*spills)[part]) {
        AX_ASSIGN_OR_RETURN((*spills)[part],
                            RunWriter::Create(tmp_->NextPath("gbyspill")));
        owned_spill_paths_.push_back((*spills)[part]->path());
        spills_used_++;
        GroupBySpillPartitionsCounter()->Add(1);
      }
      return (*spills)[part]->Write(row);
    }
    // Uniform grant accounting: hash-entry bookkeeping + the key values
    // the table stores + the group's state slots.
    table_bytes_ += kHashEntryOverheadBytes + state_arity_ * sizeof(adm::Value);
    for (const auto& v : key_) table_bytes_ += v.ByteSize();
    id = table_.Insert(key_, hash);
    states_.resize(states_.size() + state_arity_);
    InitState(&states_[id * state_arity_]);
  }
  // Aggregation may grow the state (kCollect); mirror that growth into the
  // table-wide total the spill trigger tests.
  AX_RETURN_NOT_OK(
      Fold(&states_[id * state_arity_], t, input_is_partial, &grown));
  table_bytes_ += grown;
  return Status::OK();
}

void HashGroupByOp::DrainTableToOutput() {
  output_.reserve(output_.size() + table_.size());
  for (uint32_t id = 0; id < table_.size(); id++) {
    Tuple out;
    EmitGroup(table_.key(id), &states_[id * state_arity_], &out);
    output_.push_back(std::move(out));
  }
  table_.Clear();
  std::vector<adm::Value>().swap(states_);
  std::vector<std::vector<adm::Value>>().swap(collected_);
  table_bytes_ = 0;
}
Status HashGroupByOp::Open() {
  AX_RETURN_NOT_OK(child_->Open());
  std::vector<std::unique_ptr<RunWriter>> spills;
  AX_RETURN_NOT_OK(ProcessStream(child_.get(), phase_ == AggPhase::kFinal,
                                 /*level=*/0, &spills));
  AX_RETURN_NOT_OK(child_->Close());
  DrainTableToOutput();
  for (auto& w : spills) {
    if (w) {
      AX_RETURN_NOT_OK(w->Finish());
      bytes_spilled_ += w->bytes_written();
      GroupBySpillBytesCounter()->Add(w->bytes_written());
      pending_partitions_.emplace_back(w->path(), 1);
    }
  }
  // Process spill partitions (they may recursively re-spill).
  while (!pending_partitions_.empty()) {
    if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
    auto [path, level] = pending_partitions_.back();
    pending_partitions_.pop_back();
    AX_ASSIGN_OR_RETURN(auto reader, RunReader::Open(path));
    std::vector<std::unique_ptr<RunWriter>> more_spills;
    AX_RETURN_NOT_OK(ProcessStream(reader.get(), /*input_is_partial=*/true,
                                   level, &more_spills));
    DrainTableToOutput();
    for (auto& w : more_spills) {
      if (w) {
        AX_RETURN_NOT_OK(w->Finish());
        bytes_spilled_ += w->bytes_written();
        GroupBySpillBytesCounter()->Add(w->bytes_written());
        pending_partitions_.emplace_back(w->path(), level + 1);
      }
    }
  }
  // A keyless (global) aggregate must produce exactly one row even over
  // empty input: SELECT COUNT(*) on an empty dataset is 0, not zero rows.
  // Only the single complete/final instance seeds it — partial instances
  // stay silent so the final phase does not double-count empty partitions.
  if (keys_.empty() && output_.empty() && phase_ != AggPhase::kPartial) {
    spill_.resize(state_arity_);
    InitState(spill_.data());
    Tuple out;
    EmitGroup({}, spill_.data(), &out);
    output_.push_back(std::move(out));
  }
  out_pos_ = 0;
  return Status::OK();
}

Result<bool> HashGroupByOp::NextBatch(Batch* out) {
  if (ctx_ != nullptr) AX_RETURN_NOT_OK(ctx_->CheckAlive());
  out->Clear();
  while (out_pos_ < output_.size() && !out->full()) {
    *out->Add() = std::move(output_[out_pos_++]);
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status HashGroupByOp::Close() {
  output_.clear();
  collected_.clear();
  CleanupSpillFiles();
  grant_.Release();
  return Status::OK();
}

}  // namespace asterix::hyracks
