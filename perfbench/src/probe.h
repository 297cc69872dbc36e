// Measurement plumbing: latency samples, spans, the operator-new counter,
// and before/after snapshots of the counters the engine already exports.
// Nothing here reaches inside the engine: spans wrap calls made from the
// benchmark's own files, and engine numbers come from the same accessors
// kStatsV2 and the metrics sampler read.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/table.h"
#include "env/sim_disk_env.h"
#include "net/server.h"
#include "util/cache.h"
#include "util/histogram.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Heap allocations (alloc_count.cc) ------------------------------------

/// Every operator new in this binary bumps the counter while counting is on.
/// Counting is off unless the run is traced, so untraced runs pay one
/// relaxed load per allocation.
void SetAllocCounting(bool on);
uint64_t AllocCount();

// ---- Host speed -------------------------------------------------------------
//
// The benchmark's CPU is a vCPU of a shared host, and its speed swings: in
// phases of a few seconds to a minute the engine's code ran up to 2.7x
// slower, with the same code and data, as the host's other tenants competed
// for the physical core and its caches. Raw wall times then spread by 15-50%
// (q3 - q1 over the median) between runs of the same code. A fixed
// reference kernel — reads at hashed positions of a 16 MB table, code that
// never changes with the engine — slows in the same phases, though not
// always by as much. So every timing the benchmark
// reports is scaled to a reference host speed, its wall time times
// kReferenceKernelNanos / (the kernel's recent time on the same thread),
// and statistics are taken over the samples recorded while the host ran
// fastest (FactoredValues). On a 4-vCPU VM this cut the spread of most
// timings two- to fourfold.

/// The reference kernel's time on a quiet host, in nanoseconds.
constexpr double kReferenceKernelNanos = 15000;

/// The current host-speed factor for the calling thread: reference kernel
/// time / the median of its last few timed kernel runs. Runs the kernel
/// first when the thread last ran it more than a fraction of a millisecond
/// ago, so call it after a timed call, never inside one.
double HostFactor();

/// `nanos` of wall time at the reference host speed.
inline int64_t AtReferenceSpeed(int64_t nanos) {
  return static_cast<int64_t>(static_cast<double>(nanos) * HostFactor());
}

/// Every factor HostFactor computed so far, on all threads. The difference
/// of two tallies gives a window's mean factor, which scales its wall time.
struct HostTally {
  double sum = 0;
  uint64_t n = 0;
  static HostTally Now();
  /// Mean factor between `earlier` and this tally (1 when none was taken).
  double MeanSince(const HostTally& earlier) const;
};

// ---- Latency samples ------------------------------------------------------

/// Values of one measured quantity, each with the host factor it was scaled
/// by. Statistics are taken over the values recorded while the host ran at
/// its fastest — factor at or above the median factor — because scaling
/// undercorrects the engine's slowdown in the host's slowest phases. A value
/// recorded with an infinite factor (a failed op) always counts.
class FactoredValues {
 public:
  void Add(double value, double factor) { v_.push_back({value, factor}); }
  void Merge(const FactoredValues& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t count() const { return v_.size(); }
  /// Nearest-rank quantile of the fast-host values (0 when empty).
  double Quantile(double q) const;
  double Sum() const {
    double sum = 0;
    for (const auto& [value, factor] : v_) sum += value;
    return sum;
  }

 private:
  std::vector<std::pair<double, double>> v_;
};

/// Durations of one operation type, in nanoseconds at the reference host
/// speed. Not thread-safe: each thread records into its own and the owner
/// merges them afterwards.
class Samples {
 public:
  /// `nanos` of wall time recorded when the host factor was `factor`.
  void Add(int64_t nanos, double factor = 1) {
    v_.Add(static_cast<double>(nanos) * factor, factor);
  }
  /// A failed or refused op: it misses any latency limit.
  void AddFailed();
  void Merge(const Samples& other) { v_.Merge(other.v_); }
  size_t count() const { return v_.count(); }
  int64_t SumNanos() const { return static_cast<int64_t>(v_.Sum()); }
  /// Nearest-rank quantile in microseconds (0 when empty).
  double QuantileMicros(double q) const { return v_.Quantile(q) / 1000.0; }
  /// The highest percentile with at least ten samples beyond it, as a
  /// fraction (0.99 once there are 1000 samples); 0.5 below 20 samples.
  double TailQuantile() const;

 private:
  FactoredValues v_;
};

// ---- Spans ---------------------------------------------------------------

/// One timed call at a layer boundary. Spans of one request share
/// `request`; `parent` is the span index (within the same recorder) of the
/// enclosing call, or -1.
struct Span {
  const char* name;
  uint64_t request;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-thread span buffer. Kept in memory during the run and written out
/// when the benchmark ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  /// Opens a span and returns its index (-1 when disabled).
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, request, parent, NowNanos(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---- Engine counter snapshots ----------------------------------------------

/// A copy of every engine-side counter and histogram the benchmark reads,
/// taken at one instant. Diff two snapshots to get a timed window's share.
struct EngineSnapshot {
  std::map<std::string, uint64_t> counters;  // table.*, server.*, cache.*
  std::map<std::string, lt::HistogramSnapshot> hists;
  int64_t sim_disk_micros = 0;
  int64_t seeks = 0;
  int64_t disk_bytes_read = 0;
  int64_t disk_bytes_written = 0;

  static EngineSnapshot Take(lt::Table* table, lt::LittleTableServer* server,
                             lt::Cache* cache, lt::SimDiskEnv* disk);
};

/// later - earlier for a counter (0 when absent).
uint64_t CounterDelta(const EngineSnapshot& a, const EngineSnapshot& b,
                      const std::string& name);

/// The histogram of values recorded between two snapshots, as bucket
/// counts; quantiles resolve to bucket midpoints like the engine's own.
struct HistDelta {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;
  double Quantile(double q) const;
  double Mean() const { return count ? static_cast<double>(sum) / count : 0; }
};
HistDelta HistogramDelta(const EngineSnapshot& a, const EngineSnapshot& b,
                         const std::string& name);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
