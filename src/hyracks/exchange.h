// Exchange connectors: move tuples between operator partitions across
// bounded queues (paper §III item 4 — the Hyracks dataflow platform's
// partitioned-parallel execution; Fig. 1's cluster of node partitions).
// Connector kinds mirror Hyracks: one-to-one, M:N hash partitioning,
// broadcast, and M:1 merge.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "hyracks/stream.h"

namespace asterix::hyracks {

/// One unit of queue transfer: a batch of tuples (a "frame" — Hyracks
/// moves frames between partitions, not tuples, so synchronization cost
/// amortizes over ~hundreds of rows). kFrameTuples (the frame/batch
/// capacity) lives in batch.h: a popped frame is handed out as a Batch
/// without re-chunking.
using Frame = std::vector<Tuple>;

/// Per-exchange traffic statistics, updated lock-free by producers and
/// consumers; the query profiler harvests them into the EXCHANGE node of
/// the profiled plan (and global totals mirror into the metrics registry).
struct ExchangeStats {
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> tuples_sent{0};
  std::atomic<uint64_t> producer_wait_ns{0};  // blocked on a full queue
  std::atomic<uint64_t> consumer_wait_ns{0};  // blocked on an empty queue
};

/// MPMC bounded frame queue with failure propagation.
class BoundedTupleQueue {
 public:
  /// `capacity` counts tuples; internally rounded up to whole frames.
  /// `stats` (optional) receives traffic/wait accounting; shared so the
  /// queue can outlive the owning Exchange (consumer streams hold queues).
  explicit BoundedTupleQueue(size_t capacity,
                             std::shared_ptr<ExchangeStats> stats = nullptr)
      : capacity_frames_(std::max<size_t>(2, capacity / kFrameTuples)),
        stats_(std::move(stats)) {}

  void SetProducerCount(int n) AX_EXCLUDES(mu_);
  /// Attach the query's cancellation context. Blocked pushes/pops bound
  /// their waits by the context deadline; cancellation itself wakes them
  /// through Poison (the Job registers a cancel listener that poisons every
  /// exchange). Must be called before producers/consumers start.
  void SetContext(const resource::QueryContext* ctx) AX_EXCLUDES(mu_);
  /// Pushes `frame` (blocking on backpressure). When `recycled` is
  /// non-null, an empty frame from the free list — storage returned by
  /// consumers via PopFrame — is handed back so producers refill a
  /// pre-reserved vector instead of reallocating one per frame.
  Status PushFrame(Frame frame, Frame* recycled = nullptr) AX_EXCLUDES(mu_);
  /// Non-blocking push: returns false (leaving `*frame` untouched) when the
  /// queue is at capacity, true when the frame was enqueued. Poison is
  /// reported as a Status. Feed ingestion policies use this to *observe*
  /// backpressure instead of suffering it — a full queue is the signal to
  /// spill, discard or throttle.
  Result<bool> TryPushFrame(Frame* frame) AX_EXCLUDES(mu_);
  /// Current queue depth in frames (racy snapshot, for monitoring only).
  size_t ApproxFrames() AX_EXCLUDES(mu_);
  /// Blocks; returns false when all producers closed and the queue drained.
  /// `out`'s previous storage (the frame the consumer just drained) is
  /// cleared and parked on the free list for PushFrame to recycle.
  Result<bool> PopFrame(Frame* out) AX_EXCLUDES(mu_);
  void CloseOneProducer() AX_EXCLUDES(mu_);
  void Poison(const Status& st) AX_EXCLUDES(mu_);
  /// The consumer wants no more frames (a LIMIT above it is satisfied, or
  /// it drained the queue). Queued frames are dropped, later pushes are
  /// discarded, and a producer blocked on backpressure wakes.
  void CloseConsumer() AX_EXCLUDES(mu_);
  /// True once CloseConsumer ran (never goes back to false).
  bool consumer_closed() AX_EXCLUDES(mu_);

 private:
  /// Empty frames kept for recycling; small so idle queues hold no memory.
  static constexpr size_t kMaxFreeFrames = 8;

  /// Self-poison with `st` (already holding mu_) and wake both sides.
  void PoisonLocked(const Status& st) AX_REQUIRES(mu_);

  size_t capacity_frames_;
  std::shared_ptr<ExchangeStats> stats_;
  const resource::QueryContext* ctx_ = nullptr;  // set before threads start
  std::mutex mu_;
  std::condition_variable cv_push_, cv_pop_;
  std::deque<Frame> q_ AX_GUARDED_BY(mu_);
  std::vector<Frame> free_ AX_GUARDED_BY(mu_);
  int open_producers_ AX_GUARDED_BY(mu_) = 0;
  bool consumer_closed_ AX_GUARDED_BY(mu_) = false;
  Status poison_ AX_GUARDED_BY(mu_) = Status::OK();
};

/// An exchange between `n_producers` upstream partitions and `n_consumers`
/// downstream partitions. Producers run on their own threads (driven by the
/// Job executor); consumers read via ConsumerStream.
class Exchange {
 public:
  /// Routing decision for one tuple: a consumer index, or kBroadcastAll.
  static constexpr size_t kBroadcastAll = SIZE_MAX;
  using RoutingFn = std::function<Result<size_t>(const Tuple&)>;

  Exchange(size_t n_producers, size_t n_consumers, size_t queue_capacity = 4096);

  size_t n_producers() const { return n_producers_; }
  size_t n_consumers() const { return queues_.size(); }

  /// Attach the query's cancellation context to every queue and to the
  /// producer loops. Must be called before RunProducer/consumer threads
  /// start (typically right after Job::AddExchange).
  void SetContext(const resource::QueryContext* ctx);

  /// The stream a downstream partition pulls from.
  StreamPtr ConsumerStream(size_t consumer);

  /// Drive one producer partition to completion: pulls `upstream`, routes
  /// each tuple. Call from a dedicated thread; closes its share of the
  /// queues at end (or poisons them on failure). Once every consumer has
  /// closed its queue, the producer stops early: it closes `upstream` and
  /// returns OK.
  Status RunProducer(TupleStream* upstream, const RoutingFn& route);

  /// Abort: fail every queue so blocked producers/consumers unwind.
  void PoisonAll(const Status& st);

  /// Routing helpers.
  static RoutingFn HashRoute(std::vector<TupleEval> keys, size_t n_consumers);
  static RoutingFn SingleRoute();     // everything to consumer 0 (merge)
  static RoutingFn BroadcastRoute();  // everything to all consumers

  /// Cumulative traffic through this exchange (all queues).
  const ExchangeStats& stats() const { return *stats_; }

 private:
  size_t n_producers_;
  const resource::QueryContext* ctx_ = nullptr;
  // shared_ptr: consumer QueueStreams may outlive the Exchange's queues_
  // vector reshuffles; stats_ likewise outlives detached consumers.
  std::shared_ptr<ExchangeStats> stats_;
  std::vector<std::shared_ptr<BoundedTupleQueue>> queues_;
};

}  // namespace asterix::hyracks
