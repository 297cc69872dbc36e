#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "model.h"

namespace perfbench {

namespace {

// Runs of the reference kernel are at least this far apart on one thread,
// and the factor is taken from the median of the last kHostWindow runs, so
// one run slowed by a preemption does not move it.
constexpr int64_t kHostCadenceNanos = 250 * 1000;
constexpr size_t kHostWindow = 9;
// Runs older than this describe another phase of the host: after such a gap
// the window restarts from kHostFreshRuns new runs.
constexpr int64_t kHostStaleNanos = 20 * 1000 * 1000;
constexpr int kHostFreshRuns = 3;

volatile uint64_t g_kernel_sink = 0;

// The reference kernel: 1024 reads at hashed positions of a 16 MB table,
// more than the CPU's own L2 cache, so it waits on the shared caches and
// memory as the engine's read and write paths do. Of the kernels tried
// (compute-bound loops, a 32 kB hash table, streaming and random reads over
// 1-64 MB), its time tracked the engine's query latency most closely.
uint64_t ReferenceKernel(uint64_t seed) {
  static const std::vector<uint64_t>* table = [] {
    auto* t = new std::vector<uint64_t>(2 << 20);
    for (size_t i = 0; i < t->size(); i++) (*t)[i] = Mix64(i);
    return t;
  }();
  uint64_t sum = 0;
  for (int k = 0; k < 1024; k++) {
    seed = Mix64(seed);
    sum += (*table)[seed & (table->size() - 1)];
  }
  return sum;
}

struct HostThread {
  int64_t last = 0;
  uint64_t runs = 0;
  int64_t recent[kHostWindow] = {};
  double factor = 1;
};

std::mutex g_tally_mu;
HostTally g_tally;

}  // namespace

double HostFactor() {
  thread_local HostThread t;
  const int64_t now = NowNanos();
  if (t.runs > 0 && now - t.last < kHostCadenceNanos) return t.factor;
  const bool stale = t.runs == 0 || now - t.last > kHostStaleNanos;
  if (stale) t.runs = 0;
  for (int k = 0; k < (stale ? kHostFreshRuns : 1); k++) {
    // Timed cold, right after the caller's own work, as the engine's code
    // runs: a warmed-up run tracked the engine's slowdowns less closely.
    const int64_t t0 = NowNanos();
    g_kernel_sink = ReferenceKernel(static_cast<uint64_t>(t0));
    const int64_t t1 = NowNanos();
    t.recent[t.runs % kHostWindow] = t1 - t0;
    t.runs++;
    t.last = t1;
  }
  const size_t n = std::min<uint64_t>(t.runs, kHostWindow);
  int64_t sorted[kHostWindow];
  std::copy(t.recent, t.recent + n, sorted);
  std::nth_element(sorted, sorted + n / 2, sorted + n);
  t.factor = kReferenceKernelNanos / static_cast<double>(std::max<int64_t>(1, sorted[n / 2]));
  std::lock_guard<std::mutex> lock(g_tally_mu);
  g_tally.sum += t.factor;
  g_tally.n++;
  return t.factor;
}

HostTally HostTally::Now() {
  std::lock_guard<std::mutex> lock(g_tally_mu);
  return g_tally;
}

double HostTally::MeanSince(const HostTally& earlier) const {
  return n > earlier.n ? (sum - earlier.sum) / static_cast<double>(n - earlier.n)
                       : 1.0;
}

double FactoredValues::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> factors;
  for (const auto& [value, factor] : v_) factors.push_back(factor);
  const size_t mid = (factors.size() - 1) / 2;
  std::nth_element(factors.begin(), factors.begin() + static_cast<long>(mid),
                   factors.end());
  const double cut = factors[mid];
  std::vector<double> s;
  for (const auto& [value, factor] : v_) {
    if (factor >= cut) s.push_back(value);
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(s.size())));
  rank = std::clamp<size_t>(rank, 1, s.size());
  std::nth_element(s.begin(), s.begin() + static_cast<long>(rank - 1), s.end());
  return s[rank - 1];
}

void Samples::AddFailed() {
  v_.Add(1e18, std::numeric_limits<double>::infinity());
}

double Samples::TailQuantile() const {
  // Quantiles are taken over the fast-host half of the samples.
  const double n = static_cast<double>((v_.count() + 1) / 2);
  if (n < 20) return 0.5;
  // Nearest rank ceil(q n) leaves n - ceil(q n) samples above it; keep ten.
  for (double q : {0.999, 0.99, 0.95, 0.9}) {
    if (n - std::ceil(q * n) >= 10) return q;
  }
  return 0.5;
}

EngineSnapshot EngineSnapshot::Take(lt::Table* table,
                                    lt::LittleTableServer* server,
                                    lt::Cache* cache, lt::SimDiskEnv* disk) {
  EngineSnapshot s;
  table->stats().ForEachCounter(
      [&](const char* name, uint64_t v) { s.counters[name] = v; });
  table->stats().ForEachHistogram(
      [&](const char* name, const lt::LatencyHistogram& h) {
        s.hists[name] = h.Snapshot();
      });
  for (const auto& [name, v] : server->metrics().CounterValues()) {
    s.counters[name] = static_cast<uint64_t>(v);
  }
  for (auto& [name, h] : server->metrics().HistogramSnapshots()) {
    s.hists[name] = std::move(h);
  }
  if (cache != nullptr) {
    lt::Cache::Stats cs = cache->GetStats();
    s.counters["cache.hits"] = cs.hits;
    s.counters["cache.misses"] = cs.misses;
    s.counters["cache.evictions"] = cs.evictions;
  }
  s.sim_disk_micros = disk->SimElapsedMicros();
  s.seeks = disk->seek_count();
  s.disk_bytes_read = disk->bytes_read();
  s.disk_bytes_written = disk->bytes_written();
  return s;
}

uint64_t CounterDelta(const EngineSnapshot& a, const EngineSnapshot& b,
                      const std::string& name) {
  auto ia = a.counters.find(name);
  auto ib = b.counters.find(name);
  uint64_t va = ia == a.counters.end() ? 0 : ia->second;
  uint64_t vb = ib == b.counters.end() ? 0 : ib->second;
  return vb >= va ? vb - va : 0;
}

HistDelta HistogramDelta(const EngineSnapshot& a, const EngineSnapshot& b,
                         const std::string& name) {
  HistDelta d;
  auto ib = b.hists.find(name);
  if (ib == b.hists.end()) return d;
  d.buckets = ib->second.buckets;
  d.sum = ib->second.sum;
  auto ia = a.hists.find(name);
  if (ia != a.hists.end()) {
    for (size_t i = 0; i < d.buckets.size() && i < ia->second.buckets.size();
         i++) {
      d.buckets[i] -= std::min(d.buckets[i], ia->second.buckets[i]);
    }
    d.sum -= std::min(d.sum, ia->second.sum);
  }
  for (uint64_t c : d.buckets) d.count += c;
  return d;
}

double HistDelta::Quantile(double q) const {
  if (count == 0) return 0;
  uint64_t target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); i++) {
    seen += buckets[i];
    if (seen >= target) {
      return static_cast<double>(lt::LatencyHistogram::BucketValue(i));
    }
  }
  return 0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB.
}

}  // namespace perfbench
