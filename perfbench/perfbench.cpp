// The repository benchmark: drives the public asterix::Instance API through
// one of three workloads over deterministic Gleambook data and prints, as
// its last line, one JSON object of metrics (see README.md for every
// metric's definition, unit and base). Run through perfbench/run.py, which
// builds this program and adds the host/build fingerprint.
//
//   perfbench --workload analytics|operational|htap --seed N
//             --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it records a span around every call the benchmark makes into a
// module, brackets the workload with metrics::Registry snapshots, times the
// single layers from outside, and reports the per-layer metrics.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adm/serde.h"
#include "algebricks/functions.h"
#include "algebricks/optimizer.h"
#include "asterix/dataset.h"
#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "helpers.h"
#include "sqlpp/parser.h"
#include "sqlpp/translator.h"
#include "storage/buffer_cache.h"
#include "storage/maintenance.h"

using namespace asterix;
using adm::Value;
using Clock = std::chrono::steady_clock;
namespace stdfs = std::filesystem;

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

constexpr size_t kPartitions = 4;
constexpr int64_t kUsers = 20000;
constexpr int64_t kAnalyticsMessages = 60000;
constexpr int64_t kOperationalMessages = 200000;
/// Rounds per untraced run. Each sets up its own data set derived from the
/// seed (setup_s is their median) and measures it for a third of the run,
/// so that a run averages over three data sets: the join's cost depends on
/// the data (it spills its output when very popular authors pass its
/// filter).
constexpr int kRounds = 3;
/// htap's open-loop writer: fixed rate, and the most deletes it keeps
/// outstanding (deleted keys are re-inserted oldest first). The rate leaves
/// the writer idle most of the time, so a stall (or CPU steal on a shared
/// host) is caught up quickly instead of turning into a standing backlog.
constexpr double kHtapWritesPerSecond = 10000;
constexpr size_t kHtapMaxOutstandingDeletes = 1000;
/// htap's one departure from the default InstanceOptions: 1 MiB LSM memory
/// components (default 4 MiB), so that at kHtapWritesPerSecond flushes and
/// merges still run several cycles in a run.
constexpr size_t kHtapLsmMemBudgetBytes = 1u << 20;
/// The htap generator has fallen behind its schedule when its last write
/// was issued this late (a stall it recovered from does not count).
constexpr double kHtapMaxLatenessMs = 1000;
/// Highest tail percentile reported (the rule in SupportedTailPercentile
/// picks the highest one the sample supports, up to this cap). On a shared
/// 4-vCPU host, p99, p95 and p90 of point reads swung by up to 6x, 4x and
/// 4x between runs, following the hypervisor's CPU steal. Write tails are
/// details, not gated: htap's writes, timed from due, moved by up to 6x at
/// p75 and 2x at p90 with the same steal.
constexpr double kTailCap = 75.0;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

/// In-memory span log of one thread: name, start, end, parent span and
/// request id. Written out once, at exit, as Chrome trace_event JSON.
class Tracer {
 public:
  explicit Tracer(int tid) : tid_(tid) {}

  struct Span {
    const char* name;
    uint64_t start_ns, end_ns;
    int64_t parent;
    uint64_t request;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (t_ == nullptr) return;
      index_ = static_cast<int64_t>(t_->spans_.size());
      t_->spans_.push_back({name, metrics::NowNs(), 0, t_->open_, t_->request_});
      t_->open_ = index_;
    }
    ~Scope() {
      if (t_ == nullptr) return;
      t_->spans_[static_cast<size_t>(index_)].end_ns = metrics::NowNs();
      t_->open_ = t_->spans_[static_cast<size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int64_t index_ = -1;
  };

  void BeginRequest() { request_++; }

  /// Chrome trace_event "X" events, one per span, comma-separated.
  void AppendEvents(std::ostream& out, bool* first) const {
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      out << (*first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid_
          << ",\"ts\":" << s.start_ns / 1000.0
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
      *first = false;
    }
  }

  size_t size() const { return spans_.size(); }

 private:
  int tid_;
  std::vector<Span> spans_;
  int64_t open_ = -1;
  uint64_t request_ = 0;
};

/// Span scope that is free when `t` is null (untraced runs and ops).
using Span = Tracer::Scope;

bool WriteChromeTrace(const std::string& path,
                      std::initializer_list<const Tracer*> tracers) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  bool first = true;
  for (const Tracer* t : tracers) t->AppendEvents(out, &first);
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::string first_error;

  void Fail(const std::string& why, bool wrong_answer) {
    failed++;
    if (wrong_answer) correct = false;
    if (first_error.empty()) first_error = why;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Samples of one operation class, with its tail summary.
struct ClassSamples {
  std::string name;
  std::vector<double> ms;
  std::vector<double> traced_ms;  // traced run: ops recorded with spans
};

struct TailSummary {
  double p50 = 0, tail = 0, percentile = 0;
  size_t n = 0;
};

TailSummary Summarize(std::vector<double> v) {
  TailSummary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = Percentile(&v, 50);
  s.percentile = SupportedTailPercentile(v.size(), kTailCap);
  s.tail = Percentile(&v, s.percentile > 0 ? s.percentile : 50);
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : stdfs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Set-up: Open + DDL + load through UpsertValue + Checkpoint, and the
// background maintenance the load started
// ---------------------------------------------------------------------------

struct DataShape {
  int64_t messages;
  bool indexes;
  size_t lsm_mem_budget_bytes = InstanceOptions{}.lsm_mem_budget_bytes;
};

struct Loaded {
  std::unique_ptr<Instance> instance;
  std::unique_ptr<gleambook::Generator> gen;  // continues past the load
  double setup_s = 0;
  double load_writes_per_s = 0;
};

gleambook::GeneratorOptions GenOptions(uint64_t seed, int64_t messages) {
  gleambook::GeneratorOptions o;
  o.seed = seed;
  o.num_users = kUsers;
  o.num_messages = messages;
  return o;
}

/// Loads users then messages in generator order. Generating records and
/// tallying them are not set-up time: both happen in chunks, off the clock.
/// `ref` tallies what was written; `write_ms` (optional) collects the
/// latency of each UpsertValue; `t` (optional) spans them.
Loaded Setup(const std::string& dir, uint64_t seed, DataShape shape,
             size_t partitions, Reference* ref, std::vector<double>* write_ms,
             Tracer* t, Outcome* out) {
  stdfs::remove_all(dir);
  Loaded l;
  l.gen = std::make_unique<gleambook::Generator>(GenOptions(seed, shape.messages));
  auto t0 = Clock::now();
  double untimed_ms = 0, load_ms = 0;
  InstanceOptions opts;
  opts.base_dir = dir;
  opts.num_partitions = partitions;
  opts.lsm_mem_budget_bytes = shape.lsm_mem_budget_bytes;
  auto opened = Instance::Open(opts);
  if (!opened.ok()) {
    out->Fail("open: " + opened.status().ToString(), false);
    return l;
  }
  l.instance = std::move(opened).value();
  if (auto st = l.instance->ExecuteScript(gleambook::Generator::Ddl(shape.indexes));
      !st.ok()) {
    out->Fail("ddl: " + st.status().ToString(), false);
    l.instance.reset();
    return l;
  }
  constexpr int64_t kChunk = 8192;
  std::vector<Value> chunk;
  auto load = [&](const char* dataset, int64_t total, bool users) {
    for (int64_t base = 0; base < total; base += kChunk) {
      auto g0 = Clock::now();
      chunk.clear();
      for (int64_t i = base; i < std::min(total, base + kChunk); i++) {
        chunk.push_back(users ? l.gen->MakeUser(i) : l.gen->MakeMessage(i));
      }
      auto g1 = Clock::now();
      untimed_ms += MsBetween(g0, g1);
      for (const Value& v : chunk) {
        if (t) t->BeginRequest();
        auto w0 = Clock::now();
        Status st = [&] {
          Span span(t, "asterix.UpsertValue");
          return l.instance->UpsertValue(dataset, v);
        }();
        if (write_ms) write_ms->push_back(MsBetween(w0, Clock::now()));
        out->attempted++;
        if (!st.ok()) out->Fail(std::string("load: ") + st.ToString(), false);
      }
      auto g2 = Clock::now();
      load_ms += MsBetween(g1, g2);
      for (const Value& v : chunk) {
        users ? ref->PutUser(v) : ref->PutMessage(v);
      }
      untimed_ms += MsBetween(g2, Clock::now());
    }
  };
  load("GleambookUsers", kUsers, true);
  load("GleambookMessages", shape.messages, false);
  if (Status st = l.instance->Checkpoint(); !st.ok()) {
    out->Fail("checkpoint: " + st.ToString(), false);
  }
  // Merges the load triggered are set-up work: finish them before timing.
  if (l.instance->maintenance()) l.instance->maintenance()->Drain();
  l.setup_s = (MsBetween(t0, Clock::now()) - untimed_ms) / 1000.0;
  l.load_writes_per_s =
      static_cast<double>(kUsers + shape.messages) / (load_ms / 1000.0);
  return l;
}

// ---------------------------------------------------------------------------
// The workloads' measured phases
// ---------------------------------------------------------------------------

struct RunContext {
  Instance* inst;
  Reference* ref;
  Tracer* tracer;         // null in untraced runs
  Tracer* writer_tracer;  // htap's writer thread; null in untraced runs
  bool trace;
  double seconds;
  Outcome* out;
};

/// Samples every workload produces. Reads are the classes of the
/// workload; writes are its upserts and deletes.
struct Samples {
  std::vector<ClassSamples> reads;
  std::vector<double> write_ms;
  std::vector<double> late_ms;  // generator lateness per issued op
  int64_t writes = 0;
  double writes_per_s = 0;
  std::vector<std::string> read_texts;  // one representative text per class
};

/// Runs `q` and records its latency under `cls`; false (and a failure)
/// when it errs. Traced runs alternate traced and untraced requests, which
/// gives the tracing overhead.
bool TimedExecute(RunContext& c, ClassSamples* cls, const std::string& q,
                  bool traced, std::vector<Value>* rows) {
  Tracer* t = traced ? c.tracer : nullptr;
  if (t) t->BeginRequest();
  auto t0 = Clock::now();
  Result<QueryResult> r = [&] {
    Span span(t, "asterix.Execute");
    return c.inst->Execute(q);
  }();
  double ms = MsBetween(t0, Clock::now());
  c.out->attempted++;
  if (!r.ok()) {
    c.out->Fail(cls->name + ": " + r.status().ToString(), false);
    return false;
  }
  (traced ? cls->traced_ms : cls->ms).push_back(ms);
  *rows = std::move(r.value().rows);
  return true;
}

/// analytics (exact answers) and the htap query client (bounded answers).
/// `absent` gives, per query, the range of tallied messages that may be
/// missing; null means none.
void AnalyticalLoop(RunContext& c, const Reference::Tally& tally,
                    const std::function<Absent(const std::function<void()>&)>*
                        bracket,
                    Samples* s, Clock::time_point deadline) {
  s->reads = {{"count_ms", {}, {}}, {"agg_ms", {}, {}}, {"join_ms", {}, {}},
              {"topk_ms", {}, {}}};
  s->read_texts = {kCountQuery, kAggQuery, kJoinQuery, kTopKQuery};
  using Check = std::string (*)(const std::vector<Value>&,
                                const Reference::Tally&, Absent);
  const Check checks[] = {CheckCount, CheckAgg, CheckJoin, CheckTopK};
  auto prev_done = Clock::now();
  // At least one rotation: a deadline in the past makes a warm-up pass.
  for (uint64_t round = 0; round == 0 || Clock::now() < deadline; round++) {
    bool traced = c.trace && round % 2 == 0;
    for (size_t k = 0; k < 4; k++) {
      s->late_ms.push_back(MsBetween(prev_done, Clock::now()));
      // The bounds are observed around the query, so it is checked after.
      std::vector<Value> rows;
      bool ok = false;
      auto run = [&] {
        ok = TimedExecute(c, &s->reads[k], s->read_texts[k], traced, &rows);
      };
      Absent a = bracket ? (*bracket)(run) : (run(), Absent{});
      prev_done = Clock::now();
      if (!ok) continue;
      if (std::string e = checks[k](rows, tally, a); !e.empty()) {
        c.out->Fail(e, true);
      }
    }
  }
}

void OperationalLoop(RunContext& c, gleambook::Generator* gen, uint64_t seed,
                     Samples* s) {
  s->reads = {{"lookup_ms", {}, {}}, {"index_query_ms", {}, {}}};
  s->read_texts = {LookupQuery(kUsers / 2), IndexQuery(kUsers / 2)};
  Rng rng(seed ^ 0x0F5EA7105ULL);
  int64_t next_id = c.ref->message_id_end();
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration<double>(c.seconds);
  auto prev_done = t0;
  for (uint64_t op = 0; Clock::now() < deadline; op++) {
    bool traced = c.trace && op % 2 == 0;
    Tracer* t = traced ? c.tracer : nullptr;
    uint64_t u = rng.Uniform(100);
    s->late_ms.push_back(MsBetween(prev_done, Clock::now()));
    if (u < 50) {
      // Writes: 25% upserts of new keys, 20% upserts of existing keys (new
      // contents), 5% deletes; existing keys are skewed towards popular ids.
      int64_t id = u < 25 ? next_id++
                          : static_cast<int64_t>(rng.Skewed(
                                static_cast<uint64_t>(next_id)));
      Value rec;
      if (u < 45) rec = gen->MakeMessage(id);
      if (t) t->BeginRequest();
      auto w0 = Clock::now();
      Status st;
      if (u < 45) {
        Span span(t, "asterix.UpsertValue");
        st = c.inst->UpsertValue("GleambookMessages", rec);
      } else {
        Span span(t, "asterix.DeleteByKey");
        auto r = c.inst->DeleteByKey("GleambookMessages", Value::Int(id));
        st = r.ok() ? Status::OK() : r.status();
      }
      s->write_ms.push_back(MsBetween(w0, Clock::now()));
      c.out->attempted++;
      s->writes++;
      if (!st.ok()) {
        c.out->Fail("write: " + st.ToString(), false);
      } else if (u < 45) {
        c.ref->PutMessage(rec);
      } else {
        c.ref->DeleteMessage(id);
      }
    } else if (u < 85) {
      int64_t id = static_cast<int64_t>(rng.Skewed(static_cast<uint64_t>(next_id)));
      std::vector<Value> rows;
      if (TimedExecute(c, &s->reads[0], LookupQuery(id), traced, &rows)) {
        if (std::string e = CheckLookup(rows, *c.ref, id); !e.empty()) c.out->Fail(e, true);
      }
    } else {
      int64_t author = static_cast<int64_t>(rng.Uniform(kUsers));
      std::vector<Value> rows;
      if (TimedExecute(c, &s->reads[1], IndexQuery(author), traced, &rows)) {
        if (std::string e = CheckIndexQuery(rows, *c.ref, author); !e.empty()) {
          c.out->Fail(e, true);
        }
      }
    }
    prev_done = Clock::now();
  }
  s->writes_per_s =
      static_cast<double>(s->writes) / (MsBetween(t0, Clock::now()) / 1000.0);
}

/// htap: the analytical rotation on one closed-loop client beside one
/// open-loop writer at kHtapWritesPerSecond. The writer updates (rewrites
/// a live record unchanged), deletes, and re-inserts (oldest deleted key
/// first) over the loaded keys, so the live set stays within
/// kHtapMaxOutstandingDeletes of the load.
void HtapLoop(RunContext& c, uint64_t seed, const Reference::Tally& tally,
              const std::vector<Value>& messages, Samples* s) {
  std::atomic<int64_t> dels_started{0}, dels_done{0}, reins_started{0},
      reins_done{0};
  std::atomic<bool> writer_failed{false};
  std::string writer_error;
  const int64_t n = static_cast<int64_t>(messages.size());
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(c.seconds));
  const auto period = std::chrono::duration<double>(1.0 / kHtapWritesPerSecond);
  Clock::time_point last_done = t0;
  std::vector<double> write_ms, late_ms;

  std::thread writer([&] {
    Rng rng(seed ^ 0x47A9E11ULL);
    std::vector<bool> deleted(static_cast<size_t>(n), false);
    std::deque<int64_t> fifo;
    auto pick_live = [&] {
      int64_t k = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
      while (deleted[static_cast<size_t>(k)]) k = (k + 1) % n;
      return k;
    };
    Tracer* t = c.writer_tracer;
    for (int64_t i = 0;; i++) {
      auto due = t0 + std::chrono::duration_cast<Clock::duration>(period * i);
      if (due >= deadline) break;
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      auto issued = Clock::now();
      late_ms.push_back(MsBetween(due, issued));
      uint64_t u = rng.Uniform(10);
      Status st;
      if (t) t->BeginRequest();
      if (u == 0 && fifo.size() < kHtapMaxOutstandingDeletes) {
        int64_t k = pick_live();
        deleted[static_cast<size_t>(k)] = true;
        fifo.push_back(k);
        dels_started++;
        Span span(t, "asterix.DeleteByKey");
        auto r = c.inst->DeleteByKey("GleambookMessages", Value::Int(k));
        st = !r.ok() ? r.status()
             : r.value() ? Status::OK()
                         : Status::Internal("delete of a live key found nothing");
        dels_done++;
      } else if (u == 1 && !fifo.empty()) {
        int64_t k = fifo.front();
        fifo.pop_front();
        reins_started++;
        Span span(t, "asterix.UpsertValue");
        st = c.inst->UpsertValue("GleambookMessages",
                                 messages[static_cast<size_t>(k)]);
        deleted[static_cast<size_t>(k)] = false;
        reins_done++;
      } else {
        Span span(t, "asterix.UpsertValue");
        st = c.inst->UpsertValue("GleambookMessages",
                                 messages[static_cast<size_t>(pick_live())]);
      }
      last_done = Clock::now();
      write_ms.push_back(MsBetween(due, last_done));
      if (!st.ok() && !writer_failed.exchange(true)) writer_error = st.ToString();
    }
    // Off the clock: re-insert what is still deleted, so the final state
    // is the loaded data again and the tally stays exact.
    for (int64_t k : fifo) {
      reins_started++;
      Status st = c.inst->UpsertValue("GleambookMessages",
                                      messages[static_cast<size_t>(k)]);
      reins_done++;
      if (!st.ok() && !writer_failed.exchange(true)) writer_error = st.ToString();
    }
  });

  std::function<Absent(const std::function<void()>&)> bracket =
      [&](const std::function<void()>& run) {
        int64_t s_dels_done = dels_done.load();
        int64_t s_reins_done = reins_done.load();
        run();
        int64_t e_dels_started = dels_started.load();
        int64_t e_reins_started = reins_started.load();
        return Absent{std::max<int64_t>(0, s_dels_done - e_reins_started),
                      e_dels_started - s_reins_done};
      };
  AnalyticalLoop(c, tally, &bracket, s, deadline);
  writer.join();
  s->write_ms = std::move(write_ms);
  s->writes = static_cast<int64_t>(s->write_ms.size());
  c.out->attempted += s->writes;
  if (writer_failed) c.out->Fail("htap writer: " + writer_error, false);
  s->writes_per_s =
      static_cast<double>(s->writes) / (MsBetween(t0, last_done) / 1000.0);
  // The query client's lateness is its between-request gap; the writer's
  // is how late each write was issued against its schedule.
  s->late_ms = std::move(late_ms);
  const double final_late = s->late_ms.empty() ? 0 : s->late_ms.back();
  if (final_late > kHtapMaxLatenessMs) {
    c.out->Fail("htap: generator fell behind its schedule by " +
                    std::to_string(final_late) + " ms; run invalid",
                true);
  }
}

// ---------------------------------------------------------------------------
// Per-layer timings taken from outside (traced run)
// ---------------------------------------------------------------------------

template <typename F>
double MedianUs(int reps, F&& f) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; i++) {
    auto t0 = Clock::now();
    f();
    us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
  }
  return Median(std::move(us));
}

struct FrontEnd {
  double parse_us = 0, translate_us = 0, optimize_us = 0;
};

/// Median ParseStatement / TranslateQuery / Optimize time of one text.
FrontEnd TimeFrontEnd(Instance* inst, const std::string& text, Tracer* t,
                      Outcome* out) {
  constexpr int kReps = 200;
  FrontEnd fe;
  auto st = sqlpp::ParseStatement(text);
  if (!st.ok() || st.value().kind != sqlpp::ast::Statement::kQuery) {
    out->Fail("front end: cannot parse " + text, false);
    return fe;
  }
  const auto& query = *st.value().query;
  fe.parse_us = MedianUs(kReps, [&] {
    Span span(t, "sqlpp.ParseStatement");
    (void)sqlpp::ParseStatement(text);
  });
  fe.translate_us = MedianUs(kReps, [&] {
    Span span(t, "sqlpp.Translator::TranslateQuery");
    sqlpp::Translator tr(inst->metadata());
    (void)tr.TranslateQuery(query);
  });
  std::vector<double> us;
  for (int i = 0; i < kReps; i++) {
    sqlpp::Translator tr(inst->metadata());
    auto plan = tr.TranslateQuery(query);
    if (!plan.ok()) {
      out->Fail("front end: cannot translate " + text, false);
      return fe;
    }
    auto t0 = Clock::now();
    {
      Span span(t, "algebricks.Optimize");
      (void)algebricks::Optimize(plan.value().plan, *inst->metadata(),
                                 algebricks::OptimizerOptions{},
                                 algebricks::FunctionRegistry::Instance());
    }
    us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
  }
  fe.optimize_us = Median(std::move(us));
  return fe;
}

struct ScanLayers {
  double iterate_ms_per_100k = 0, decode_ms_per_100k = 0;
  double encode_us = 0, record_bytes = 0;
};

/// Iterate and iterate+decode over one benchmark-opened partition holding
/// the workload's first kAnalyticsMessages messages, plus adm encode cost.
ScanLayers TimeScanLayers(Instance* inst, const std::string& dir, uint64_t seed,
                          Tracer* t, Outcome* out) {
  ScanLayers sl;
  auto def = inst->metadata()->GetDataset("GleambookMessages");
  if (!def.ok()) {
    out->Fail("scan layers: " + def.status().ToString(), false);
    return sl;
  }
  meta::DatasetDef d = def.value();
  d.indexes.clear();
  stdfs::remove_all(dir);
  stdfs::create_directories(dir);
  storage::BufferCache cache(InstanceOptions{}.buffer_cache_pages);
  PartitionOptions po;
  po.dir = dir;
  po.cache = &cache;
  auto opened = DatasetPartition::Open(d, po);
  if (!opened.ok()) {
    out->Fail("scan layers: " + opened.status().ToString(), false);
    return sl;
  }
  auto part = std::move(opened).value();
  gleambook::Generator gen(GenOptions(seed, kAnalyticsMessages));
  for (int64_t i = 0; i < kUsers; i++) (void)gen.MakeUser(i);
  std::vector<Value> recs;
  for (int64_t i = 0; i < kAnalyticsMessages; i++) recs.push_back(gen.MakeMessage(i));
  double bytes = 0;
  std::vector<double> enc_us;
  for (int rep = 0; rep < 3; rep++) {
    auto t0 = Clock::now();
    Span span(t, "adm.Serialize");
    for (const Value& v : recs) bytes += static_cast<double>(adm::Serialize(v).size());
    enc_us.push_back(MsBetween(t0, Clock::now()) * 1000.0 /
                     static_cast<double>(recs.size()));
  }
  sl.encode_us = Median(enc_us);
  sl.record_bytes = bytes / 3 / static_cast<double>(recs.size());
  for (const Value& v : recs) {
    if (Status st = part->Upsert(v, /*log=*/false); !st.ok()) {
      out->Fail("scan layers: " + st.ToString(), false);
      return sl;
    }
  }
  if (Status st = part->Flush(); !st.ok()) {
    out->Fail("scan layers: " + st.ToString(), false);
    return sl;
  }
  auto pass = [&](bool decode) {
    auto t0 = Clock::now();
    Span span(t, decode ? "storage.scan+adm.Deserialize" : "storage.ScanIterator");
    auto it = part->ScanIterator();
    int64_t rows = 0;
    if (!it.ok() || !it.value().SeekToFirst().ok()) return -1.0;
    for (auto& i = it.value(); i.Valid(); (void)i.Next()) {
      if (decode && !adm::Deserialize(i.value()).ok()) return -1.0;
      rows++;
    }
    if (rows != kAnalyticsMessages) return -1.0;
    return MsBetween(t0, Clock::now()) * 100000.0 / static_cast<double>(rows);
  };
  std::vector<double> iter, dec;
  for (int rep = 0; rep < 7; rep++) {
    iter.push_back(pass(false));
    dec.push_back(pass(true));
  }
  if (*std::min_element(iter.begin(), iter.end()) < 0 ||
      *std::min_element(dec.begin(), dec.end()) < 0) {
    out->Fail("scan layers: partition scan lost rows", true);
  }
  sl.iterate_ms_per_100k = Median(iter);
  sl.decode_ms_per_100k = Median(dec);
  part.reset();
  stdfs::remove_all(dir);
  return sl;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string trace_out;  // traced run: where the spans go
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 == 0) return false;  // flags come in pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a->workload = v;
      else if (k == "--seed") a->seed = std::stoull(v);
      else if (k == "--seconds") a->seconds = std::stod(v);
      else if (k == "--trace") a->trace = v == "1";
      else if (k == "--workdir") a->workdir = v;
      else if (k == "--trace-out") a->trace_out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return (a->workload == "analytics" || a->workload == "operational" ||
          a->workload == "htap") &&
         !a->workdir.empty() && a->seconds > 0 &&
         (!a->trace || !a->trace_out.empty());
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Emit(const Outcome& out, const std::vector<Metric>& metrics,
          const std::vector<Metric>& details) {
  auto obj = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); i++) {
      s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           JsonNumber(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}";
  };
  std::string err;
  for (char ch : out.first_error) {
    if (ch == '"' || ch == '\\') err += '\\';
    err += (ch == '\n' ? ' ' : ch);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "%s, \"details\": %s, \"first_error\": \"%s\"}\n",
      out.correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), obj(metrics).c_str(),
      obj(details).c_str(), err.c_str());
}

/// One round: a data set derived from the run's seed, set up, measured,
/// checkpointed and torn down.
struct Round {
  Samples s;
  double setup_s = 0;
  double load_writes_per_s = 0;
  std::vector<double> load_write_ms;
  double disk_ratio = 0;
};

/// splitmix64 of (seed, round): distinct, deterministic data per round.
uint64_t RoundSeed(uint64_t seed, int round) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(round) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The traced run's per-layer metrics: single layers timed from outside on
/// the round's instance, plus registry deltas. `run` covers the measured
/// phase; `writes` (lasting `writes_s`) covers the round's load too, so
/// that write-path counters see every write the round made.
std::vector<Metric> LayerMetrics(const Args& args, uint64_t seed, Instance* inst,
                                 const Reference& ref, const Samples& s,
                                 const metrics::MetricsSnapshot& run,
                                 const metrics::MetricsSnapshot& writes,
                                 double writes_s, double load_records,
                                 double load_bytes, Tracer* t, Outcome* out) {
  std::vector<double> parse, translate, optimize, exec_self, traced, untraced;
  for (size_t k = 0; k < s.reads.size(); k++) {
    FrontEnd fe = TimeFrontEnd(inst, s.read_texts[k], t, out);
    parse.push_back(fe.parse_us);
    translate.push_back(fe.translate_us);
    optimize.push_back(fe.optimize_us);
    traced.push_back(Median(s.reads[k].traced_ms));
    untraced.push_back(Median(s.reads[k].ms));
    exec_self.push_back(traced.back() -
                        (fe.parse_us + fe.translate_us + fe.optimize_us) / 1000.0);
  }
  double fixed_us = MedianUs(500, [&] {
    Span span(t, "asterix.Execute");
    (void)inst->Execute("SELECT VALUE 1");
  });
  Rng rng(seed ^ 0x6E7ULL);
  double get_us = MedianUs(2000, [&] {
    int64_t id = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(ref.message_id_end())));
    Value rec;
    Span span(t, "asterix.GetByKey");
    auto r = inst->GetByKey("GleambookMessages", Value::Int(id), &rec);
    if (!r.ok() || r.value() != (ref.Find(id) != nullptr)) {
      out->Fail("GetByKey " + std::to_string(id) + " disagrees with the tally",
                true);
    }
  });
  ScanLayers sl = TimeScanLayers(inst, args.workdir + "/scan", seed, t, out);

  // The same count and agg on a 1-partition instance with the analytics data.
  double count_p1 = 0, agg_p1 = 0;
  {
    Reference ref1;
    Loaded p1 = Setup(args.workdir + "/p1", seed, {kAnalyticsMessages, false},
                      /*partitions=*/1, &ref1, nullptr, nullptr, out);
    if (p1.instance) {
      const Reference::Tally t1 = ref1.ComputeTally();
      auto timed = [&](const char* q, auto check) {
        std::vector<double> ms;
        for (int rep = 0; rep < 8; rep++) {
          auto t0 = Clock::now();
          Result<QueryResult> r = [&] {
            Span span(t, "asterix.Execute[p1]");
            return p1.instance->Execute(q);
          }();
          if (rep > 0) ms.push_back(MsBetween(t0, Clock::now()));
          if (!r.ok()) {
            out->Fail("p1: " + r.status().ToString(), false);
          } else if (std::string e = check(r.value().rows, t1, Absent{});
                     !e.empty()) {
            out->Fail("p1 " + e, true);
          }
        }
        return Median(ms);
      };
      count_p1 = timed(kCountQuery, CheckCount);
      agg_p1 = timed(kAggQuery, CheckAgg);
    }
    p1.instance.reset();
    stdfs::remove_all(args.workdir + "/p1");
  }

  auto d = [&](const char* name) { return static_cast<double>(run.value(name)); };
  auto w = [&](const char* name) { return static_cast<double>(writes.value(name)); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double queries = 0, query_ms = 0;
  for (const auto& cls : s.reads) {
    queries += static_cast<double>(cls.ms.size() + cls.traced_ms.size());
    for (double ms : cls.ms) query_ms += ms;
    for (double ms : cls.traced_ms) query_ms += ms;
  }
  const double ops = queries + static_cast<double>(s.writes);
  const double all_writes = load_records + static_cast<double>(s.writes);
  const double user_bytes_written =
      load_bytes + static_cast<double>(s.writes) * sl.record_bytes;
  auto lsm = inst->DatasetStats("GleambookMessages");
  std::vector<double> late = s.late_ms;
  return {
      {"sqlpp.parse_us", GeoMean(parse), "us"},
      {"sqlpp.translate_us", GeoMean(translate), "us"},
      {"algebricks.optimize_us", GeoMean(optimize), "us"},
      {"asterix.query_fixed_us", fixed_us, "us"},
      {"asterix.get_us", get_us, "us"},
      {"asterix.execute_self_ms", GeoMean(exec_self), "ms"},
      {"storage.scan_iterate_ms_per_100k", sl.iterate_ms_per_100k, "ms"},
      {"adm.decode_ms_per_100k", sl.decode_ms_per_100k, "ms"},
      {"adm.encode_us", sl.encode_us, "us"},
      {"adm.record_bytes", sl.record_bytes, "B"},
      {"hyracks.count_p1_ms", count_p1, "ms"},
      {"hyracks.agg_p1_ms", agg_p1, "ms"},
      {"hyracks.exchange.tuples_per_query",
       ratio(d("hyracks.exchange.tuples_sent"), queries), "count"},
      {"hyracks.exchange.frames_per_query",
       ratio(d("hyracks.exchange.frames_sent"), queries), "count"},
      {"hyracks.exchange.consumer_wait_share",
       ratio(d("hyracks.exchange.consumer_wait_ns") / 1e6, query_ms), "ratio"},
      {"hyracks.exchange.producer_wait_share",
       ratio(d("hyracks.exchange.producer_wait_ns") / 1e6, query_ms), "ratio"},
      {"hyracks.batch.mean_fill",
       ratio(d("hyracks.batch.tuples"), d("hyracks.batch.batches_emitted")),
       "tuples"},
      {"hyracks.batch.fallback_share",
       ratio(d("hyracks.batch.fallback_batches"), d("hyracks.batch.batches_emitted")),
       "ratio"},
      {"hyracks.spill.bytes_written", d("hyracks.spill.bytes_written"), "B"},
      {"storage.buffer_cache.hit_ratio",
       ratio(d("storage.buffer_cache.hits"),
             d("storage.buffer_cache.hits") + d("storage.buffer_cache.misses")),
       "ratio"},
      {"storage.buffer_cache.evictions_per_op",
       ratio(d("storage.buffer_cache.evictions"), ops), "count"},
      {"storage.bloom.negative_ratio",
       ratio(d("storage.bloom.negatives"), d("storage.bloom.probes")), "ratio"},
      {"storage.lsm.disk_components",
       lsm.ok() ? static_cast<double>(lsm.value().disk_components) : 0, "count"},
      {"storage.lsm.flushes", w("storage.lsm.flushes"), "count"},
      {"storage.lsm.merges", w("storage.lsm.merges"), "count"},
      {"storage.lsm.write_amp",
       ratio(w("storage.lsm.flush_bytes") + w("storage.lsm.merge_bytes"),
             user_bytes_written),
       "B/B"},
      {"storage.lsm.write_stall_share",
       ratio(w("storage.lsm.write_stall_ns") / 1e9, writes_s), "ratio"},
      {"storage.maintenance.tasks_run", w("storage.maintenance.tasks_run"), "count"},
      {"txn.wal.bytes_per_write", ratio(w("txn.wal.bytes"), all_writes), "B"},
      {"txn.wal.fsyncs", w("txn.wal.fsyncs"), "count"},
      {"bench.generator_late_ms_p99", Percentile(&late, 99), "ms"},
      {"bench.trace_overhead_pct", (GeoMean(traced) / GeoMean(untraced) - 1) * 100,
       "%"},
  };
}

int Run(const Args& args) {
  Outcome out;
  const bool analytics = args.workload == "analytics";
  const bool operational = args.workload == "operational";
  const DataShape shape =
      operational ? DataShape{kOperationalMessages, true}
      : analytics ? DataShape{kAnalyticsMessages, false}
                  : DataShape{kAnalyticsMessages, false, kHtapLsmMemBudgetBytes};
  const std::string db = args.workdir + "/db";
  Tracer tracer(1), writer_tracer(2);
  Tracer* t = args.trace ? &tracer : nullptr;
  // The traced run measures one round, for the whole run.
  const int rounds = args.trace ? 1 : kRounds;
  const double round_seconds = args.seconds / rounds;

  std::vector<Round> done;
  std::vector<Metric> metrics;
  for (int r = 0; r < rounds; r++) {
    const uint64_t seed = RoundSeed(args.seed, r);
    Round rd;
    Reference ref;
    const metrics::MetricsSnapshot at_open = metrics::Registry::Global().Snapshot();
    const auto opened_at = Clock::now();
    Loaded l = Setup(db, seed, shape, kPartitions, &ref, &rd.load_write_ms, t, &out);
    const double load_bytes = static_cast<double>(ref.live_bytes());
    if (!l.instance) break;
    rd.setup_s = l.setup_s;
    rd.load_writes_per_s = l.load_writes_per_s;
    const Reference::Tally tally = ref.ComputeTally();
    RunContext c{l.instance.get(), &ref,         t,
                 args.trace ? &writer_tracer : nullptr,
                 args.trace,      round_seconds, &out};
    metrics::MetricsSnapshot before;
    if (operational) {
      before = metrics::Registry::Global().Snapshot();
      OperationalLoop(c, l.gen.get(), seed, &rd.s);
    } else {
      // Warm-up: every analytical class once, checked, not timed.
      Samples warm;
      RunContext wc = c;
      wc.trace = false;
      AnalyticalLoop(wc, tally, nullptr, &warm, Clock::now());
      if (analytics) {
        before = metrics::Registry::Global().Snapshot();
        AnalyticalLoop(c, tally, nullptr, &rd.s,
                       Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(round_seconds)));
      } else {
        std::vector<Value> messages;
        gleambook::Generator gen(GenOptions(seed, kAnalyticsMessages));
        for (int64_t i = 0; i < kUsers; i++) (void)gen.MakeUser(i);
        for (int64_t i = 0; i < kAnalyticsMessages; i++) {
          messages.push_back(gen.MakeMessage(i));
        }
        before = metrics::Registry::Global().Snapshot();
        HtapLoop(c, seed, tally, messages, &rd.s);
      }
    }
    const metrics::MetricsSnapshot now = metrics::Registry::Global().Snapshot();
    const metrics::MetricsSnapshot run_delta = now.DeltaSince(before);
    const metrics::MetricsSnapshot write_delta = now.DeltaSince(at_open);
    const double writes_s = MsBetween(opened_at, Clock::now()) / 1000;
    if (Status st = l.instance->Checkpoint(); !st.ok()) {
      out.Fail("final checkpoint: " + st.ToString(), false);
    }
    if (l.instance->maintenance()) l.instance->maintenance()->Drain();
    rd.disk_ratio = static_cast<double>(DirBytes(db)) /
                    static_cast<double>(ref.live_bytes());
    if (args.trace) {
      metrics = LayerMetrics(args, seed, l.instance.get(), ref, rd.s, run_delta,
                             write_delta, writes_s,
                             static_cast<double>(kUsers + shape.messages), load_bytes,
                             t, &out);
    }
    l.instance.reset();
    stdfs::remove_all(db);
    done.push_back(std::move(rd));
  }
  if (done.size() != static_cast<size_t>(rounds)) {
    Emit(out, {}, {});
    return 1;
  }

  // Reads: per class, the geometric mean over rounds of each round's
  // median, and the tail of all the run's samples pooled.
  std::vector<Metric> details;
  std::vector<double> p50s, tails;
  for (size_t k = 0; k < done[0].s.reads.size(); k++) {
    std::vector<double> medians, pooled;
    for (const Round& rd : done) {
      const auto& ms = rd.s.reads[k].ms;
      medians.push_back(Median(ms));
      pooled.insert(pooled.end(), ms.begin(), ms.end());
    }
    const std::string& name = done[0].s.reads[k].name;
    TailSummary ts = Summarize(pooled);
    p50s.push_back(GeoMean(medians));
    tails.push_back(ts.tail);
    details.push_back({name + "_p50", p50s.back(), "ms"});
    details.push_back({name + "_tail", ts.tail, "ms"});
    details.push_back({name + "_tail_percentile", ts.percentile, "pct"});
    details.push_back({name + "_samples", static_cast<double>(ts.n), "count"});
  }
  // Writes: analytics is read-only, so its writes are its set-ups' loads.
  std::vector<double> write_ms, writes_per_s, setup_s, disk_ratio;
  for (const auto& rd : done) {
    setup_s.push_back(rd.setup_s);
    if (analytics) {
      write_ms.insert(write_ms.end(), rd.load_write_ms.begin(), rd.load_write_ms.end());
      writes_per_s.push_back(rd.load_writes_per_s);
    } else {
      write_ms.insert(write_ms.end(), rd.s.write_ms.begin(), rd.s.write_ms.end());
      writes_per_s.push_back(rd.s.writes_per_s);
    }
    disk_ratio.push_back(rd.disk_ratio);
  }
  TailSummary ws = Summarize(write_ms);
  details.push_back({"write_ms_tail", ws.tail, "ms"});
  details.push_back({"write_ms_tail_percentile", ws.percentile, "pct"});
  details.push_back({"write_samples", static_cast<double>(ws.n), "count"});
  details.push_back({"ops_failed_ratio",
                     out.attempted ? static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted)
                                   : 1.0,
                     "ratio"});
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"rss_mb", PeakRssMb(), "MiB"},
        {"disk_bytes_per_user_byte", Median(disk_ratio), "B/B"},
        {"read_ms_p50", GeoMean(p50s), "ms"},
        {"read_ms_tail", GeoMean(tails), "ms"},
        {"writes_per_s", Median(writes_per_s), "1/s"},
        {"write_ms_p50", ws.p50, "ms"},
    };
  } else {
    details.push_back({"spans_recorded",
                       static_cast<double>(tracer.size() + writer_tracer.size()),
                       "count"});
    if (!WriteChromeTrace(args.trace_out, {&tracer, &writer_tracer})) {
      out.Fail("cannot write " + args.trace_out, false);
    }
  }
  for (const auto* list : {&metrics, &details}) {
    for (const Metric& m : *list) {
      if (!ValidMetricName(m.name)) out.Fail("invalid metric name " + m.name, true);
    }
  }
  Emit(out, metrics, details);
  return out.correct && out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload analytics|operational|htap --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
