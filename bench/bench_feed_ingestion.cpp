// Feed-ingestion throughput (ISSUE 4 acceptance bench): steady-state
// tuples/sec of the three-stage feed runtime under each ingestion policy,
// against the direct-upsert loop the pipeline wraps — plus one stall
// scenario measuring how long the feed takes to recover full delivery
// after its adapter dies mid-stream and is restarted at the resume point.
//
//   bench_feed_ingestion [--smoke] [--json <path>]
//
// Every scenario opens a fresh Instance (fresh WAL, fresh LSM memory
// components) so no run inherits another's flush/merge debt. The timed
// region for feeds is Start() → drained (WaitForCompletion) → Stop();
// adapter pre-fill is untimed — the channel adapter holds the whole input
// before the pipeline starts, so the numbers measure the pipeline, not
// the source. `tuples` is always the *offered* load: Discard sheds part
// of it by design, and its per-second figure deliberately reports
// shed-load throughput, not applied-record throughput.
//
// The tracked gate (tools/bench_to_json.sh): feed_basic must retain at
// least 80% of direct_upsert — the pipeline's queues, record codec, and
// progress tracking may cost at most 20% against raw storage ingest.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "asterix/instance.h"
#include "bench_json.h"
#include "feeds/adapter.h"
#include "feeds/fault_injector.h"
#include "feeds/policy.h"
#include "feeds/runtime.h"

using asterix::Instance;
using asterix::InstanceOptions;
using asterix::Status;
using asterix::adm::Value;
using asterix::feeds::ChannelAdapter;
using asterix::feeds::FaultInjector;
using asterix::feeds::FeedPolicy;
using asterix::feeds::FeedRuntime;
using asterix::feeds::FeedRuntimeOptions;
using asterix::feeds::ParseSpec;
using asterix::feeds::PolicyKind;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Value Doc(int64_t id) {
  return asterix::adm::ObjectBuilder()
      .Add("id", Value::Int(id))
      .Add("v", Value::Int(id * 7))
      .Build();
}

std::unique_ptr<Instance> OpenFresh(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  InstanceOptions opts;
  opts.base_dir = dir;
  opts.num_partitions = 2;
  auto inst = Instance::Open(opts);
  if (!inst.ok()) {
    std::fprintf(stderr, "instance open failed: %s\n",
                 inst.status().ToString().c_str());
    std::exit(1);
  }
  auto ddl = inst.value()->ExecuteScript(
      "CREATE TYPE T AS { id: int, v: int };"
      "CREATE DATASET D(T) PRIMARY KEY id");
  if (!ddl.ok()) {
    std::fprintf(stderr, "ddl failed: %s\n", ddl.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(inst).value();
}

/// Direct-upsert baseline: the same records through the same WAL'd
/// storage path, minus the feed pipeline around it.
double RunDirect(const std::string& dir, size_t n) {
  auto inst = OpenFresh(dir);
  std::vector<Value> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; i++) docs.push_back(Doc(static_cast<int64_t>(i)));
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& d : docs) {
    Status st = inst->UpsertValue("D", d);
    if (!st.ok()) {
      std::fprintf(stderr, "upsert failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  return MsSince(t0);
}

/// One feed run over a pre-filled closed channel. Queue capacity is kept
/// deliberately small relative to n so the overflow policies actually
/// engage instead of hiding the whole input in the queue.
double RunFeed(const std::string& dir, size_t n, FeedPolicy policy,
               FaultInjector* faults) {
  auto inst = OpenFresh(dir);
  auto adapter = std::make_unique<ChannelAdapter>();
  for (size_t i = 0; i < n; i++) {
    (void)adapter->Push(Doc(static_cast<int64_t>(i)));
  }
  adapter->CloseChannel();
  FeedRuntimeOptions o;
  o.feed_name = "bench";
  o.dataset = std::string("D");
  o.policy = policy;
  o.parse.format = ParseSpec::Format::kParsed;
  o.faults = faults;
  o.spill_dir = dir + "/spill";
  FeedRuntime rt(inst.get(), std::move(adapter), std::move(o));

  const auto t0 = std::chrono::steady_clock::now();
  Status st = rt.Start();
  if (st.ok()) st = rt.WaitForCompletion(/*timeout_ms=*/120000);
  if (st.ok()) st = rt.Stop();
  double ms = MsSince(t0);
  if (!st.ok()) {
    std::fprintf(stderr, "feed run failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return ms;
}

struct Scenario {
  const char* name;
  std::function<double(const std::string& dir)> run;
  double best_ms = 1e18;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axbench::HasFlag(argc, argv, "--smoke");
  const std::string json_path = axbench::JsonPathFromArgs(argc, argv);
  const size_t n = smoke ? 50'000 : 100'000;
  const int reps = smoke ? 7 : 9;
  const std::string base =
      std::filesystem::temp_directory_path().string() + "/axbench_feeds";

  std::printf("feed ingestion bench: %zu records, best of %d reps%s\n\n", n,
              reps, smoke ? " (smoke)" : "");

  FeedPolicy small_queue;  // shared by the overflow policies
  small_queue.queue_capacity_tuples = 2048;

  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"direct_upsert", [n](const std::string& d) { return RunDirect(d, n); }});
  scenarios.push_back({"feed_basic", [n](const std::string& d) {
                         return RunFeed(d, n, FeedPolicy{}, nullptr);
                       }});
  scenarios.push_back({"feed_spill", [n, small_queue](const std::string& d) {
                         FeedPolicy p = small_queue;
                         p.kind = PolicyKind::kSpill;
                         return RunFeed(d, n, p, nullptr);
                       }});
  scenarios.push_back({"feed_discard", [n, small_queue](const std::string& d) {
                         FeedPolicy p = small_queue;
                         p.kind = PolicyKind::kDiscard;
                         return RunFeed(d, n, p, nullptr);
                       }});
  scenarios.push_back({"feed_throttle", [n, small_queue](const std::string& d) {
                         FeedPolicy p = small_queue;
                         p.kind = PolicyKind::kThrottle;
                         p.throttle_min_rate = 1e9;  // clamp, don't crawl
                         return RunFeed(d, n, p, nullptr);
                       }});
  // Stall recovery: the adapter dies halfway through; the runtime backs
  // off, reopens it at the resume point, and still delivers everything.
  // The run's total time (vs feed_basic) is the recovery cost.
  scenarios.push_back({"feed_stall_recovery", [n](const std::string& d) {
                         FaultInjector faults;
                         faults.KillAdapterAfter(n / 2);
                         return RunFeed(d, n, FeedPolicy{}, &faults);
                       }});

  // Interleave reps so a noisy window degrades one rep of every scenario
  // rather than every rep of one, and keep each scenario's minimum.
  for (int r = 0; r < reps; r++) {
    for (Scenario& s : scenarios) {
      s.best_ms = std::min(s.best_ms, s.run(base));
    }
  }
  std::filesystem::remove_all(base);

  axbench::JsonReport report("bench_feed_ingestion");
  std::printf("%-22s %10s %14s\n", "scenario", "ms", "tuples/sec");
  for (const auto& s : scenarios) {
    report.Add(s.name, n, s.best_ms);
    std::printf("%-22s %10.2f %14.0f\n", s.name, s.best_ms,
                axbench::TuplesPerSec(n, s.best_ms));
  }

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
