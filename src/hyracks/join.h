// Hash join with grace-style partitioning when the build side exceeds the
// memory budget (paper Fig. 2: joins are among the working-memory
// consumers; the founding assumption is that inputs can exceed memory).
// Supports inner, left-outer and left-semi joins; the left input is the
// probe side, the right input is the build side. The probe streams: each
// NextBatch pairs one probe batch at a time against the table and hands
// out at most kFrameTuples results, so join output is never buffered —
// Hyracks pipelines frames through a join the same way (BDMS overview,
// PAPERS.md).
#pragma once

#include <memory>
#include <vector>

#include "common/io.h"
#include "hyracks/key_table.h"
#include "hyracks/spill.h"
#include "hyracks/stream.h"
#include "resource/governor.h"

namespace asterix::hyracks {

enum class JoinType { kInner, kLeftOuter, kLeftSemi };

struct JoinStats {
  size_t partitions_spilled = 0;
  size_t recursion_depth = 0;
  uint64_t bytes_spilled = 0;  // grace partition files, both sides
};

class HashJoinOp : public TupleStream {
 public:
  /// `left_keys`/`right_keys` are positionally paired equi-join keys.
  /// `residual` (optional) is evaluated over the concatenated tuple
  /// (left ++ right) and filters matches (non-equi conjuncts).
  HashJoinOp(StreamPtr left, StreamPtr right, std::vector<TupleEval> left_keys,
             std::vector<TupleEval> right_keys, JoinType type,
             size_t memory_budget_bytes, TempFileManager* tmp,
             TupleEval residual = nullptr, size_t right_arity_hint = 0);
  ~HashJoinOp() override;

  /// Adopt a governor grant (overriding the constructor budget when the
  /// grant carries bytes) and a cancellation context checked at batch
  /// granularity. The grant is RAII-released at Close/destruction.
  void AttachResources(const resource::QueryContext* ctx,
                       resource::MemoryGrant grant) {
    ctx_ = ctx;
    SetQueryContext(ctx);  // internal run readers inherit it via the base
    grant_ = std::move(grant);
    if (grant_.bytes() > 0) budget_ = grant_.bytes();
  }

  /// Builds the hash table from the right input and opens the probe side.
  /// When the build side outgrows the budget, both inputs are instead
  /// grace-partitioned to files; NextBatch then joins the partition pairs
  /// one at a time through the same probe loop.
  Status Open() override;
  /// Probes probe batches until `out` holds kFrameTuples results or the
  /// input ends; a probe tuple with more matches than fit continues in the
  /// next call from a cursor on its match chain.
  Result<bool> NextBatch(Batch* out) override;
  /// Closes a probe side that is still open (a LIMIT above may stop early),
  /// frees the table and removes unconsumed partition files.
  Status Close() override;

  const JoinStats& stats() const { return stats_; }

 private:
  struct Partition {
    std::string probe_path, build_path;
    int level;
  };

  /// Drain `build` into the table and open `probe` as the probe source.
  /// If the table outgrows the budget, write both inputs to partition
  /// files instead (queued on pending_, table left empty) and return true.
  Result<bool> BuildOrPartition(TupleStream* probe, TupleStream* build,
                                int level);
  /// Fill `out` with up to kFrameTuples join results.
  Status Probe(Batch* out);
  /// Make the next probe tuple current, moving on to the next probe batch
  /// and then the next partition pair as each runs out. False at the end.
  Result<bool> AdvanceProbe();
  /// Done with the current probe tuple.
  void FinishProbeTuple() {
    has_current_ = false;
    in_pos_++;
  }
  /// The current probe source is exhausted: close it and free the table.
  Status EndProbeSource();
  /// Evaluate `evals` over `t` into key_; *has_unknown when any part is
  /// null or missing (such keys never match).
  Status EvalKey(const Tuple& t, const std::vector<TupleEval>& evals,
                 bool* has_unknown);
  void ReleaseTable();
  Status OpenStream(TupleStream* s);
  Status CloseStream(TupleStream* s);

  /// Remove every spill file this operator created and nobody consumed
  /// (abort/cancel paths; consumed files self-delete via RunReader).
  void CleanupSpillFiles();

  StreamPtr left_, right_;
  std::vector<TupleEval> left_keys_, right_keys_;
  JoinType type_;
  size_t budget_;
  TempFileManager* tmp_;
  TupleEval residual_;
  size_t right_arity_;  // for padding left-outer non-matches
  JoinStats stats_;
  const resource::QueryContext* ctx_ = nullptr;
  resource::MemoryGrant grant_;
  /// Every partition file ever created, kept for cleanup on abort.
  /// Removing already-deleted paths is a no-op.
  std::vector<std::string> owned_spill_paths_;
  std::vector<Partition> pending_;
  bool left_open_ = false, right_open_ = false;

  // Build table: distinct keys by value, each with a chain of build tuples.
  KeyTable table_;
  std::vector<Tuple> build_;
  std::vector<uint32_t> next_build_;   // per build tuple: next, same key
  std::vector<uint32_t> first_build_;  // per key id: head of its chain
  std::vector<adm::Value> key_;        // the key being evaluated (scratch)

  // Probe cursor. in_[in_pos_] is the current probe tuple iff has_current_;
  // match_ is the next build tuple to pair it with.
  TupleStream* probe_ = nullptr;  // null between sources
  std::unique_ptr<RunReader> probe_reader_;  // owns probe_ for a partition
  Batch in_;
  size_t in_pos_ = 0;
  bool has_current_ = false;
  uint32_t match_ = KeyTable::kAbsent;
  bool matched_ = false;  // the current probe tuple has produced a result
};

}  // namespace asterix::hyracks
