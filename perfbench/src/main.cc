// perfbench: the repository benchmark. One command per workload and seed:
//
//   perfbench --workload ingest|dashboard|cold_scan --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--corrupt-model]
//
// Starts an in-process LittleTableServer on TCP loopback, drives it through
// lt::Client, checks every answer against the generator's model, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics plus the
// tracing overhead (--trace 1) as the last line of stdout, in JSON.
// Wall-clock metrics measure CPU paths only: the SimDiskEnv disk model
// charges simulated time, which appears only in the env.* metrics.
// Exits 1 when an answer disagreed with the model, 2 on bad arguments.
#include <malloc.h>
#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pass.h"

namespace {

using perfbench::Metric;
using perfbench::MetricMap;

int Usage(const char* msg) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload ingest|dashboard|"
          "cold_scan --seed N --seconds S --trace 0|1 [--spans FILE] "
          "[--corrupt-model]\n",
          msg);
  return 2;
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  long long v = strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

// Restricts this process, and every thread it starts later, to the
// highest-numbered CPU it may use; returns that CPU, or -1 on failure.
// On a 4-vCPU VM the cross-CPU wakeups between client, event loop and
// workers made run-to-run spread 15-25%; on one CPU it is a few percent, and
// wall time then measures the CPU path of every thread together.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricMap& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans;
  long long seed = -1, seconds = -1, trace = -1;
  bool corrupt = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--corrupt-model") {
      corrupt = true;
      continue;
    }
    if (val == nullptr) return Usage(("missing value for " + arg).c_str());
    i++;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--spans") {
      spans = val;
    } else if (arg == "--seed") {
      if (!ParseInt(val, 0, (1LL << 62), &seed)) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!ParseInt(val, 1, 600, &seconds)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!ParseInt(val, 0, 1, &trace)) return Usage("bad --trace");
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0 || workload.empty()) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  perfbench::Workload wl;
  if (!perfbench::MakeWorkload(workload, static_cast<uint64_t>(seed), &wl)) {
    return Usage(("unknown workload " + workload).c_str());
  }

  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 1;
  }
  // Keep the heap steady between identical runs. With per-thread arenas,
  // how much freed memory stayed resident depended on which server worker
  // ran which request (peak RSS 200-290 MB run to run); one arena repeats
  // within a few percent, and on one CPU its lock is never contended. Large
  // buffers (result pages, response chunks) otherwise come from mmap and go
  // back on free, so every page refaults, a cost that varied widely between
  // runs in a VM; held in the heap they are faulted in once, during setup.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);

  perfbench::PassOptions options;
  options.seconds = static_cast<int>(seconds);
  options.corrupt_model = corrupt;
  perfbench::PassOutput out = perfbench::RunPass(wl, options);
  bool correct = out.correct;
  uint64_t attempted = out.attempted, failed = out.failed;
  MetricMap metrics = out.end_to_end;
  if (trace == 1) {
    // The traced pass repeats the workload with spans and allocation
    // counting on; what it adds to each end-to-end metric is the tracing
    // overhead.
    options.traced = true;
    options.spans_path = spans;
    perfbench::PassOutput traced = perfbench::RunPass(wl, options);
    correct = correct && traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    out.notes.insert(out.notes.end(), traced.notes.begin(), traced.notes.end());
    metrics = traced.per_layer;
    for (const auto& [name, m] : traced.end_to_end) {
      auto base = out.end_to_end.find(name);
      double untraced = base == out.end_to_end.end() ? 0 : base->second.value;
      metrics["trace_overhead." + name] = Metric{m.value - untraced, m.unit};
    }
    out.summary = traced.summary;
  }

  printf("workload=%s seed=%lld seconds=%lld trace=%lld cpu=%d\n",
         workload.c_str(), seed, seconds, trace, cpu);
  for (const std::string& line : out.summary) printf("  %s\n", line.c_str());
  for (const std::string& note : out.notes) {
    fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  fflush(stdout);
  return correct ? 0 : 1;
}
