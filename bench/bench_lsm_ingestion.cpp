// EXP-LSM: why the paper's storage layer is LSM-based (§III items 5/9),
// and what asynchronous maintenance buys on the write path (§VII).
//   1. sync vs async maintenance A/B over a 4-way partitioned ingest
//      (inline flushes with scheduler == nullptr vs background flushes
//      through a shared MaintenanceScheduler), measured two ways:
//        a. saturating ingest -> total wall time. Async overlaps the
//           fixed fdatasync cost of component builds across the worker
//           pool while the writer keeps filling memory components.
//        b. paced ingest at half the sync saturation rate -> per-op
//           p50/p99/max Put latency. Sync pays every flush in-band (the
//           budget is small enough that >1% of ops trigger one, putting
//           maintenance inside the p99 window); async moves it off the
//           write path, so the tail collapses to the in-memory op cost.
//      Tracked in BENCH_BASELINE.json: lsm_{sync,async}_ingest (a),
//      lsm_{sync,async}_{p50,p99,max} (b), and lsm_async_stall — the
//      backpressure stall total (storage.lsm.write_stall_ns) under
//      saturation, where bounded memory forces the writer to wait.
//   2. ingestion: LSM out-of-place writes (memory component + sequential
//      flushes) vs an in-place paged structure (the linear hash) under the
//      same buffer cache.
//   3. merge policies: read amplification (components consulted per Get)
//      vs write amplification across no-merge / constant / prefix policies.
// Sections 2 and 3 are narrative-only (skipped under --smoke, not in JSON).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "adm/key_encoder.h"
#include "bench_json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "storage/linear_hash.h"
#include "storage/lsm_btree.h"
#include "storage/maintenance.h"

using namespace asterix;
using namespace asterix::storage;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string KeyOf(int64_t i) {
  return adm::EncodeKey(adm::Value::Int(i)).value();
}

struct LatencySummary {
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

LatencySummary Summarize(std::vector<double>& lat_ms) {
  LatencySummary s;
  if (lat_ms.empty()) return s;
  auto nth = [&](double q) {
    size_t idx = static_cast<size_t>(q * static_cast<double>(lat_ms.size() - 1));
    std::nth_element(lat_ms.begin(), lat_ms.begin() + static_cast<long>(idx),
                     lat_ms.end());
    return lat_ms[idx];
  };
  s.p50_ms = nth(0.50);
  s.p99_ms = nth(0.99);
  s.max_ms = *std::max_element(lat_ms.begin(), lat_ms.end());
  return s;
}

struct IngestRun {
  double total_ms = 0;
  LatencySummary lat;
  uint64_t stalls = 0;
  double stall_ms = 0;
  size_t flushes = 0;
};

constexpr int kAbTrees = 4;  // one writer round-robins over 4 partitions

// One A/B ingest run over kAbTrees trees with a deliberately small memory
// budget, so a flush triggers every ~60 ops (>1% of ops — inside the p99
// window) and its fixed fdatasync cost dominates the in-memory insert.
// `period_ns` == 0 saturates (throughput measurement); > 0 paces the
// writer open-loop at that inter-op period (latency-at-fixed-load
// measurement). Ends with a Flush per tree so both modes account for all
// deferred maintenance in the wall time.
IngestRun RunIngest(const std::string& dir, const std::vector<int64_t>& order,
                    const std::string& value, MaintenanceScheduler* sched,
                    uint64_t period_ns) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(1024);
  std::vector<std::unique_ptr<LsmBTree>> trees;
  for (int t = 0; t < kAbTrees; t++) {
    LsmOptions o;
    o.dir = dir;
    o.name = std::string("p").append(std::to_string(t));
    o.cache = &cache;
    o.mem_budget_bytes = 64u << 10;
    o.merge_policy = {MergePolicyKind::kNoMerge, 0, 0};
    o.scheduler = sched;
    trees.push_back(LsmBTree::Open(o).value());
  }

  IngestRun r;
  std::vector<double> lat_ms;
  lat_ms.reserve(order.size());
  auto before = metrics::Registry::Global().Snapshot();
  auto t0 = std::chrono::steady_clock::now();
  auto next = t0;
  size_t n = 0;
  for (int64_t i : order) {
    if (period_ns > 0) {
      while (std::chrono::steady_clock::now() < next) {
      }  // spin: sleep granularity is coarser than the period
      next += std::chrono::nanoseconds(period_ns);
    }
    size_t pick = n++ % kAbTrees;
    if (sched != nullptr) {
      // Partition-aware routing: prefer the round-robin choice, but a tree
      // whose pending-flush queue sits at the backpressure bound would
      // park the writer on one partition while the other partitions (and
      // idle maintenance workers) could absorb the write. Skip ahead to
      // the first partition with queue headroom; only when every partition
      // is at the bound is the stall genuine ingest-over-flush-capacity
      // backpressure. Sync mode never has pending components, so its
      // routing stays plain round-robin.
      const size_t bound = LsmOptions{}.max_pending_immutables;
      for (int probe = 0; probe < kAbTrees; probe++) {
        size_t cand = (pick + probe) % kAbTrees;
        if (trees[cand]->stats().pending_immutables < bound) {
          pick = cand;
          break;
        }
      }
    }
    LsmBTree* tree = trees[pick].get();
    auto op0 = std::chrono::steady_clock::now();
    if (!tree->Put(KeyOf(i), value).ok()) std::exit(1);
    lat_ms.push_back(MsSince(op0));
  }
  for (auto& tree : trees) {
    if (!tree->Flush().ok()) std::exit(1);
  }
  r.total_ms = MsSince(t0);
  for (auto& tree : trees) {
    auto s = tree->stats();
    r.flushes += s.flushes;
    r.stalls += s.write_stalls;
  }
  auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
  r.stall_ms =
      static_cast<double>(delta.value("storage.lsm.write_stall_ns")) / 1e6;
  r.lat = Summarize(lat_ms);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool smoke = axbench::HasFlag(argc, argv, "--smoke");
  const std::string json_path = axbench::JsonPathFromArgs(argc, argv);
  axbench::JsonReport report("bench_lsm_ingestion");

  std::string dir = std::filesystem::temp_directory_path() / "ax_bench_lsm";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // ---- 1. sync vs async maintenance A/B --------------------------------------
  const int64_t kAbRecords = smoke ? 6000 : 40000;
  const std::string ab_value(1024, 'x');
  std::printf(
      "EXP-LSM: sync vs async LSM maintenance (%lldk x 1KB records, "
      "%d partitions)\n\n",
      (long long)kAbRecords / 1000, kAbTrees);
  {
    Rng rng(7);
    std::vector<int64_t> order(static_cast<size_t>(kAbRecords));
    for (int64_t i = 0; i < kAbRecords; i++) order[static_cast<size_t>(i)] = i;
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    auto row = [](const char* name, const IngestRun& r, int64_t n) {
      std::printf(
          "%-6s %7.1f ms %9.0f/s %7.4f ms %7.4f ms %7.2f ms %8llu %7.1f ms\n",
          name, r.total_ms, n / (r.total_ms / 1000.0), r.lat.p50_ms,
          r.lat.p99_ms, r.lat.max_ms, (unsigned long long)r.stalls, r.stall_ms);
    };
    auto header = [] {
      std::printf("%-6s %10s %12s %10s %10s %10s %8s %10s\n", "mode", "total",
                  "inserts/s", "p50", "p99", "max", "stalls", "stall time");
    };

    // Warmup (discarded): the first component builds pay cold file-system
    // state (journal, dentry caches) that would be charged to sync only.
    {
      std::vector<int64_t> head(order.begin(),
                                order.begin() + order.size() / 8);
      (void)RunIngest(dir + "/warm", head, ab_value, nullptr, 0);
    }

    // a. saturating ingest: throughput. The writer outruns flush I/O, so
    // bounded memory (the backpressure contract) throttles both modes;
    // async wins by overlapping the fdatasync waits of component builds
    // across the pool. Sized one worker per partition tree — the sizing a
    // deployment would pick for a flush-bound ingest workload, and the
    // fsync waits overlap even on a single-core host.
    std::printf("-- saturating ingest (throughput) --\n");
    header();
    IngestRun sync_sat = RunIngest(dir + "/sync", order, ab_value, nullptr, 0);
    IngestRun async_sat;
    {
      MaintenanceScheduler sched(kAbTrees);
      async_sat = RunIngest(dir + "/async", order, ab_value, &sched, 0);
    }
    row("sync", sync_sat, kAbRecords);
    row("async", async_sat, kAbRecords);
    std::printf("async is %.2fx on saturated ingest throughput\n\n",
                sync_sat.total_ms / async_sat.total_ms);

    // b. paced ingest at half the sync saturation rate: per-op latency at
    // a load both modes can sustain. Sync still pays every ~60th Put with
    // an inline component build; async keeps the write path in-memory.
    // Pool sized to the Instance default (2): this section measures the
    // foreground tail, and on a small host surplus builder threads beyond
    // what the offered load needs only add run-queue noise to the writer.
    const uint64_t period_ns = static_cast<uint64_t>(
        2.0 * sync_sat.total_ms * 1e6 / static_cast<double>(kAbRecords));
    std::printf("-- paced ingest at 50%% of sync saturation (latency) --\n");
    header();
    IngestRun sync_paced =
        RunIngest(dir + "/sync", order, ab_value, nullptr, period_ns);
    IngestRun async_paced;
    {
      MaintenanceScheduler sched(2);
      async_paced =
          RunIngest(dir + "/async", order, ab_value, &sched, period_ns);
    }
    row("sync", sync_paced, kAbRecords);
    row("async", async_paced, kAbRecords);
    std::printf(
        "async p99 write latency is %.1fx lower at the same offered load "
        "(%zu/%zu flushes)\n",
        async_paced.lat.p99_ms > 0
            ? sync_paced.lat.p99_ms / async_paced.lat.p99_ms
            : 0.0,
        sync_paced.flushes, async_paced.flushes);

    const uint64_t n = static_cast<uint64_t>(kAbRecords);
    report.Add("lsm_sync_ingest", n, sync_sat.total_ms);
    report.Add("lsm_async_ingest", n, async_sat.total_ms);
    report.Add("lsm_sync_p50", n, sync_paced.lat.p50_ms);
    report.Add("lsm_async_p50", n, async_paced.lat.p50_ms);
    report.Add("lsm_sync_p99", n, sync_paced.lat.p99_ms);
    report.Add("lsm_async_p99", n, async_paced.lat.p99_ms);
    report.Add("lsm_sync_max", n, sync_paced.lat.max_ms);
    report.Add("lsm_async_max", n, async_paced.lat.max_ms);
    report.Add("lsm_async_stall", async_sat.stalls, async_sat.stall_ms);
  }

  if (smoke) {
    if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
    std::filesystem::remove_all(dir);
    return 0;
  }

  const int64_t kRecords = 150000;
  const std::string value(128, 'x');

  // ---- 2. ingestion: LSM vs in-place -----------------------------------------
  std::printf("\n---- ingestion (random key order, %lldk records) ----\n",
              (long long)kRecords / 1000);
  {
    Rng rng(1);
    std::vector<int64_t> order(static_cast<size_t>(kRecords));
    for (int64_t i = 0; i < kRecords; i++) order[static_cast<size_t>(i)] = i;
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    double lsm_ms;
    {
      BufferCache cache(1024);
      LsmOptions o;
      o.dir = dir;
      o.name = "ingest";
      o.cache = &cache;
      o.mem_budget_bytes = 8u << 20;
      auto lsm = LsmBTree::Open(o).value();
      auto t0 = std::chrono::steady_clock::now();
      for (int64_t i : order) {
        if (!lsm->Put(KeyOf(i), value).ok()) return 1;
      }
      if (!lsm->Flush().ok()) return 1;
      lsm_ms = MsSince(t0);
      auto s = lsm->stats();
      std::printf("LSM B+tree:     %8.1f ms  (%.0fk inserts/s, %zu flushes)\n",
                  lsm_ms, kRecords / lsm_ms, s.flushes);
    }
    {
      BufferCache cache(1024);
      auto lh = LinearHash::Create(dir + "/inplace.lhash", &cache).value();
      auto t0 = std::chrono::steady_clock::now();
      for (int64_t i : order) {
        if (!lh->Put(KeyOf(i), value).ok()) return 1;
      }
      double ms = MsSince(t0);
      std::printf("in-place hash:  %8.1f ms  (%.0fk inserts/s)  -> LSM is "
                  "%.1fx faster on ingest\n",
                  ms, kRecords / ms, ms / lsm_ms);
    }
  }

  // ---- 3. merge policies ------------------------------------------------------
  std::printf("\n---- merge policies (insert-heavy, then point reads) ----\n");
  std::printf("%-12s %12s %12s %12s %14s %12s %12s %14s\n", "policy", "ingest",
              "merges", "components", "disk bytes", "written MB",
              "reads", "bloom filtered");
  struct PolicyCase {
    const char* name;
    MergePolicy policy;
  };
  PolicyCase cases[] = {
      {"no-merge", {MergePolicyKind::kNoMerge, 0, 0}},
      {"constant", {MergePolicyKind::kConstant, 4, 0}},
      {"prefix", {MergePolicyKind::kPrefix, 0, 24u << 20}},
  };
  for (const auto& pc : cases) {
    std::filesystem::remove_all(dir + "/mp");
    BufferCache cache(2048);
    LsmOptions o;
    o.dir = dir + "/mp";
    o.name = "ds";
    o.cache = &cache;
    o.mem_budget_bytes = 1u << 20;
    o.merge_policy = pc.policy;
    auto lsm = LsmBTree::Open(o).value();
    Rng rng(2);
    // Write amplification, from the registry: bytes flushed + bytes merged
    // for this policy run vs the data logically ingested.
    auto before = metrics::Registry::Global().Snapshot();
    auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < kRecords; i++) {
      int64_t key = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(kRecords)));
      if (!lsm->Put(KeyOf(key), value).ok()) return 1;
    }
    if (!lsm->Flush().ok()) return 1;
    double ingest_ms = MsSince(t0);
    auto s = lsm->stats();
    auto wdelta = metrics::Registry::Global().Snapshot().DeltaSince(before);
    double written_mb =
        static_cast<double>(wdelta.value("storage.lsm.flush_bytes") +
                            wdelta.value("storage.lsm.merge_bytes")) /
        1048576.0;
    // Point reads: time reflects per-read component probes (read ampl.);
    // bloom filters answer most absent-component probes negatively.
    before = metrics::Registry::Global().Snapshot();
    t0 = std::chrono::steady_clock::now();
    std::string v;
    for (int i = 0; i < 30000; i++) {
      int64_t key = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(kRecords)));
      (void)lsm->Get(KeyOf(key), &v).value();
    }
    double read_ms = MsSince(t0);
    auto rdelta = metrics::Registry::Global().Snapshot().DeltaSince(before);
    const uint64_t probes = rdelta.value("storage.bloom.probes");
    const uint64_t negatives = rdelta.value("storage.bloom.negatives");
    std::printf(
        "%-12s %9.1f ms %12llu %12zu %11.1f MB %9.1f MB %9.1f ms %13.1f%%\n",
        pc.name, ingest_ms, (unsigned long long)s.merges, s.disk_components,
        s.disk_bytes / 1048576.0, written_mb, read_ms,
        probes ? 100.0 * static_cast<double>(negatives) /
                     static_cast<double>(probes)
               : 0.0);
  }
  std::printf("\nno-merge ingests fastest but reads degrade with component "
              "count; merging trades write amplification for read "
              "performance (the paper's LSM design space).\n");
  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  std::filesystem::remove_all(dir);
  return 0;
}
