// One benchmark pass: set up (several times, for setup_s), run the
// workload's timed window, check every answer against the model, and turn
// what was measured into metrics.
#ifndef PERFBENCH_PASS_H_
#define PERFBENCH_PASS_H_

#include <string>
#include <vector>

#include "run.h"

namespace perfbench {

struct PassOptions {
  int seconds = 10;
  /// Record spans, count allocations, and run the per-layer replays.
  bool traced = false;
  /// Check answers against a model generated from a different seed: every
  /// check must then fail (the benchmark's own test of its checks).
  bool corrupt_model = false;
  /// Where a traced pass writes its spans (empty = nowhere).
  std::string spans_path;
};

struct PassOutput {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap end_to_end;
  MetricMap per_layer;  // Filled by traced passes only.
  std::vector<std::string> notes;
  std::vector<std::string> summary;  // Human-readable lines.
};

/// Builds the named workload for `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

PassOutput RunPass(const Workload& workload, const PassOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PASS_H_
