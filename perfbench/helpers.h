// Helpers of the repository benchmark (perfbench/perfbench.cpp) that are pure
// enough to test on their own: the tail-percentile rule, the metric-name
// grammar, and the reference tallies every query answer is checked against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "adm/serde.h"
#include "adm/value.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Candidate tail percentiles, highest first.
inline constexpr double kTailGrid[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps decimal percentiles exact (99.9% of 10000 is rank 9990, not 9991).
inline size_t NearestRank(size_t n, double p) {
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// The highest percentile of kTailGrid, no higher than `cap`, that has at
/// least `min_beyond` samples ranked above it among `n`. 0 when even the
/// median lacks that support (fewer than 2 * min_beyond samples).
inline double SupportedTailPercentile(size_t n, double cap = 99.9,
                                      size_t min_beyond = 10) {
  if (n == 0) return 0;
  for (double p : kTailGrid) {
    if (p > cap) continue;
    if (n - NearestRank(n, p) >= min_beyond) return p;
  }
  return 0;
}

/// Nearest-rank percentile of `v` (sorted in place). NaN when empty.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return std::nan("");
  std::sort(v->begin(), v->end());
  return (*v)[NearestRank(v->size(), p) - 1];
}

inline double Median(std::vector<double> v) { return Percentile(&v, 50); }

/// Geometric mean; NaN when empty or any value is not positive.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return std::nan("");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Metric names
// ---------------------------------------------------------------------------

/// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// ---------------------------------------------------------------------------
// Reference tallies
// ---------------------------------------------------------------------------

/// The benchmark's own record of what it wrote: one entry per message id
/// ever written, plus each user's friend count. Answers are checked
/// against tallies computed from it, never against the system under test.
class Reference {
 public:
  static constexpr int64_t kAggBuckets = 128;  // `authorId % 128` in kAggQuery
  static constexpr size_t kTopK = 10;

  struct Message {
    bool live = false;
    int64_t author = 0;
    int64_t text_len = 0;
    uint64_t hash = 0;  // adm::Value::Hash of the last-written record
    int64_t bytes = 0;  // its serialized size
  };

  void PutUser(const asterix::adm::Value& user) {
    friends_[user.GetField("id").AsInt()] =
        static_cast<int64_t>(user.GetField("friendIds").items().size());
    user_bytes_ += static_cast<int64_t>(asterix::adm::Serialize(user).size());
  }

  void PutMessage(const asterix::adm::Value& msg) {
    int64_t id = msg.GetField("messageId").AsInt();
    if (static_cast<size_t>(id) >= messages_.size()) {
      messages_.resize(static_cast<size_t>(id) + 1);
    }
    Message& m = messages_[static_cast<size_t>(id)];
    if (m.live) Unlink(id, m);
    m.live = true;
    m.author = msg.GetField("authorId").AsInt();
    m.text_len = static_cast<int64_t>(msg.GetField("message").AsString().size());
    m.hash = msg.Hash();
    m.bytes = static_cast<int64_t>(asterix::adm::Serialize(msg).size());
    live_bytes_ += m.bytes;
    by_author_[m.author].insert(id);
    live_++;
  }

  /// Returns whether the message was live.
  bool DeleteMessage(int64_t id) {
    if (id < 0 || static_cast<size_t>(id) >= messages_.size()) return false;
    Message& m = messages_[static_cast<size_t>(id)];
    if (!m.live) return false;
    Unlink(id, m);
    m.live = false;
    return true;
  }

  const Message* Find(int64_t id) const {
    if (id < 0 || static_cast<size_t>(id) >= messages_.size()) return nullptr;
    const Message& m = messages_[static_cast<size_t>(id)];
    return m.live ? &m : nullptr;
  }

  int64_t live_messages() const { return live_; }
  /// Serialized bytes of the users and the live messages.
  int64_t live_bytes() const { return user_bytes_ + live_bytes_; }
  /// One past the highest message id ever written.
  int64_t message_id_end() const { return static_cast<int64_t>(messages_.size()); }

  /// Live message ids of `author`, ascending.
  std::vector<int64_t> MessagesOf(int64_t author) const {
    auto it = by_author_.find(author);
    if (it == by_author_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  /// Expected answers of the analytical queries over the live messages.
  struct Tally {
    int64_t count = 0;
    std::map<int64_t, int64_t> bucket_count;    // authorId % 128 -> n
    std::map<int64_t, int64_t> bucket_longest;  // authorId % 128 -> max len
    int64_t join_count = 0;  // messages whose author has > 5 friends
    std::map<int64_t, int64_t> author_count;
    /// The k largest per-author counts, descending (ties make the author
    /// set ambiguous, the counts are not).
    std::vector<int64_t> topk_counts;
  };

  Tally ComputeTally() const {
    Tally t;
    for (const Message& m : messages_) {
      if (!m.live) continue;
      t.count++;
      int64_t b = m.author % kAggBuckets;
      t.bucket_count[b]++;
      t.bucket_longest[b] = std::max(t.bucket_longest[b], m.text_len);
      auto f = friends_.find(m.author);
      if (f != friends_.end() && f->second > 5) t.join_count++;
      t.author_count[m.author]++;
    }
    for (const auto& [author, n] : t.author_count) t.topk_counts.push_back(n);
    std::sort(t.topk_counts.rbegin(), t.topk_counts.rend());
    if (t.topk_counts.size() > kTopK) t.topk_counts.resize(kTopK);
    return t;
  }

 private:
  void Unlink(int64_t id, const Message& m) {
    auto it = by_author_.find(m.author);
    it->second.erase(id);
    if (it->second.empty()) by_author_.erase(it);
    live_--;
    live_bytes_ -= m.bytes;
  }

  std::vector<Message> messages_;  // indexed by messageId
  std::unordered_map<int64_t, std::set<int64_t>> by_author_;
  std::unordered_map<int64_t, int64_t> friends_;  // user id -> friend count
  int64_t live_ = 0;
  int64_t live_bytes_ = 0;  // of the live messages
  int64_t user_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// The workloads' queries
// ---------------------------------------------------------------------------

inline constexpr const char* kCountQuery = "SELECT COUNT(*) AS n FROM GleambookMessages m";
// The FIG1 aggregation and join (bench/bench_fig1_cluster_scaling.cpp).
inline constexpr const char* kAggQuery =
    "SELECT g AS bucket, COUNT(m.messageId) AS n, "
    "MAX(string_length(m.message)) AS longest "
    "FROM GleambookMessages m GROUP BY m.authorId % 128 AS g";
inline constexpr const char* kJoinQuery =
    "SELECT COUNT(*) AS n FROM GleambookUsers u "
    "JOIN GleambookMessages m ON m.authorId = u.id "
    "WHERE COLL_COUNT(u.friendIds) > 5";
inline constexpr const char* kTopKQuery =
    "SELECT a AS authorId, COUNT(*) AS n FROM GleambookMessages m "
    "GROUP BY m.authorId AS a ORDER BY n DESC LIMIT 10";
inline std::string LookupQuery(int64_t id) {
  return "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = " +
         std::to_string(id);
}
inline std::string IndexQuery(int64_t author) {
  return "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = " +
         std::to_string(author);
}

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------
//
// Each returns "" when the rows are a correct answer and a reason
// otherwise. `absent` bounds how many of the tallied messages may be
// missing from the answer: {0, 0} demands the exact answer; the htap
// workload passes the range its concurrent deletes allow.

struct Absent {
  int64_t min = 0;
  int64_t max = 0;
};

inline int64_t IntField(const asterix::adm::Value& row, const char* name) {
  const auto& v = row.is_object() ? row.GetField(name) : row;
  return v.is_int() ? v.AsInt() : INT64_MIN;
}

inline std::string Within(const char* what, int64_t got, int64_t lo,
                          int64_t hi) {
  if (got >= lo && got <= hi) return "";
  return std::string(what) + " = " + std::to_string(got) + ", expected [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

/// SELECT COUNT(*) AS n ...
inline std::string CheckCount(const std::vector<asterix::adm::Value>& rows,
                              const Reference::Tally& t, Absent a = {}) {
  if (rows.size() != 1) return "count: " + std::to_string(rows.size()) + " rows";
  return Within("count", IntField(rows[0], "n"), t.count - a.max,
                t.count - a.min);
}

/// kAggQuery: {bucket, n, longest} per `authorId % 128`.
inline std::string CheckAgg(const std::vector<asterix::adm::Value>& rows,
                            const Reference::Tally& t, Absent a = {}) {
  int64_t total = 0;
  std::set<int64_t> seen;
  for (const auto& row : rows) {
    int64_t b = IntField(row, "bucket");
    auto it = t.bucket_count.find(b);
    if (it == t.bucket_count.end() || !seen.insert(b).second) {
      return "agg: unexpected bucket " + std::to_string(b);
    }
    int64_t n = IntField(row, "n");
    if (auto e = Within("agg bucket n", n, it->second - a.max, it->second);
        !e.empty()) {
      return e;
    }
    int64_t longest = IntField(row, "longest");
    int64_t want = t.bucket_longest.at(b);
    if (a.max == 0 ? longest != want : longest > want) {
      return "agg: bucket " + std::to_string(b) + " longest " +
             std::to_string(longest) + " vs " + std::to_string(want);
    }
    total += n;
  }
  if (a.max == 0 && seen.size() != t.bucket_count.size()) {
    return "agg: " + std::to_string(seen.size()) + " buckets, expected " +
           std::to_string(t.bucket_count.size());
  }
  return Within("agg total", total, t.count - a.max, t.count - a.min);
}

/// kJoinQuery: one row {n}.
inline std::string CheckJoin(const std::vector<asterix::adm::Value>& rows,
                             const Reference::Tally& t, Absent a = {}) {
  if (rows.size() != 1) return "join: " + std::to_string(rows.size()) + " rows";
  return Within("join n", IntField(rows[0], "n"), t.join_count - a.max,
                t.join_count);
}

/// kTopKQuery: up to k rows {authorId, n}, n descending.
inline std::string CheckTopK(const std::vector<asterix::adm::Value>& rows,
                             const Reference::Tally& t, Absent a = {}) {
  if (rows.size() != t.topk_counts.size()) {
    return "topk: " + std::to_string(rows.size()) + " rows";
  }
  int64_t prev = INT64_MAX;
  for (size_t i = 0; i < rows.size(); i++) {
    int64_t author = IntField(rows[i], "authorId");
    int64_t n = IntField(rows[i], "n");
    auto it = t.author_count.find(author);
    if (it == t.author_count.end()) {
      return "topk: unknown author " + std::to_string(author);
    }
    if (auto e = Within("topk n", n, it->second - a.max, it->second);
        !e.empty()) {
      return e;
    }
    if (n > prev) return "topk: not in descending order";
    if (a.max == 0 && n != t.topk_counts[i]) {
      return "topk: rank " + std::to_string(i) + " n " + std::to_string(n) +
             " vs " + std::to_string(t.topk_counts[i]);
    }
    prev = n;
  }
  return "";
}

/// LookupQuery(id): the last-written record of `id`, or no row after a delete.
inline std::string CheckLookup(const std::vector<asterix::adm::Value>& rows,
                               const Reference& ref, int64_t id) {
  const Reference::Message* m = ref.Find(id);
  if (m == nullptr) {
    return rows.empty() ? "" : "lookup " + std::to_string(id) + ": deleted key found";
  }
  if (rows.size() != 1) {
    return "lookup " + std::to_string(id) + ": " + std::to_string(rows.size()) +
           " rows";
  }
  if (rows[0].Hash() != m->hash) {
    return "lookup " + std::to_string(id) + ": stale or wrong record";
  }
  return "";
}

/// IndexQuery(author): exactly the live message ids of `author`.
inline std::string CheckIndexQuery(const std::vector<asterix::adm::Value>& rows,
                                   const Reference& ref, int64_t author) {
  std::vector<int64_t> got;
  got.reserve(rows.size());
  for (const auto& row : rows) got.push_back(IntField(row, "messageId"));
  std::sort(got.begin(), got.end());
  if (got != ref.MessagesOf(author)) {
    return "index_query author " + std::to_string(author) + ": " +
           std::to_string(got.size()) + " ids, expected " +
           std::to_string(ref.MessagesOf(author).size());
  }
  return "";
}

}  // namespace perfbench
