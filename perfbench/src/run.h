// Types shared by one benchmark pass: the workload definition, failure and
// correctness accounting, span storage and the metrics a pass produces.
#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model.h"
#include "probe.h"
#include "stack.h"

namespace perfbench {

/// One workload: its fleet, what setup preloads, and how the stack is
/// configured. Everything the program receives is generated from these and
/// the seed.
struct Workload {
  enum class Kind { kIngest, kDashboard, kColdScan };
  Kind kind = Kind::kIngest;
  Fleet fleet;
  int64_t preload_polls = 0;
  /// FlushThrough after every this many preloaded polls, so the preload
  /// lands in several time-partitioned tablets (0 = one flush at the end).
  int64_t preload_flush_every = 0;
  /// Run maintenance until no flush or merge is pending before timing.
  bool settle = false;
  /// Read the whole table once during setup so timed queries hit the cache.
  bool warm = false;
  /// Verified device queries and SQL sums in the check phase.
  int check_points = 0;
  int check_sqls = 0;
  StackOptions stack;
};

/// Attempted and failed ops, plus answers that disagreed with the model.
/// Thread-safe.
class Accounting {
 public:
  /// Counts one attempted op; a non-OK status counts as failed.
  void Op(const lt::Status& s) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!s.ok()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      Note("op failed: " + s.ToString());
    }
  }
  /// Records a wrong answer: the run is not correct.
  void Wrong(const std::string& what) {
    wrong_.store(true);
    Note("wrong answer: " + what);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool wrong() const { return wrong_.load(); }
  std::vector<std::string> notes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notes_;
  }

 private:
  void Note(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (notes_.size() < 10) notes_.push_back(msg);
  }

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> wrong_{false};
  mutable std::mutex mu_;
  std::vector<std::string> notes_;
};

/// Owns every thread's span recorder for one pass.
class SpanSink {
 public:
  explicit SpanSink(bool enabled) : enabled_(enabled) {}
  SpanRecorder* NewRecorder() {
    std::lock_guard<std::mutex> lock(mu_);
    recorders_.emplace_back(enabled_);
    return &recorders_.back();
  }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }
  /// Writes every span as tab-separated text; false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::deque<SpanRecorder> recorders_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
