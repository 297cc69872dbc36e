// Seeded whole-system chaos simulation with an oracle-checked model.
//
// RunChaos builds a complete LittleTable deployment in one process — a DB
// on a simulated disk, a server, and a client speaking the real wire
// protocol over SimTransport — and drives a DeviceSim-style events workload
// while a seeded scheduler composes every fault surface the codebase has:
//
//   - process crashes: connections reset, server stopped, DB abandoned
//     without flushing, unsynced file bytes dropped (MemEnv::DropUnsynced /
//     SimDiskEnv::PowerCut), then reopen + restart on the same port;
//   - storage faults: ENOSPC budgets, failed reads/writes, armed
//     LT_CRASH_POINT countdowns in the flush/merge/descriptor protocol;
//   - network faults: partitions (blackholed writes, timed-out reads),
//     connection resets, truncated (torn) response frames, delayed
//     delivery, refused and reordered connects.
//
// After every simulated crash + reopen an in-memory oracle checks the
// paper's §3.1 contract against a model of what was inserted (the device
// model and query checks are sim/device_oracle.h's; the crash checks are
// this harness's own):
//   - prefix durability: walking every inserted row in insert order, the
//     surviving set is a prefix — once one row is lost, no later row
//     survives (the flush dependency closure at row granularity);
//   - FlushThrough (§4.1.2): rows at or before a successfully flushed-
//     through timestamp always survive;
//   - per-device event ids stay contiguous from 1, and every surviving
//     row's content equals what the deterministic device generated;
//   - no orphan files: the table directory holds exactly the descriptor
//     plus the tablets the descriptor names.
//
// Queries double as oracle probes: a successful query must return exactly
// the model's rows for that device, and in doing so resolves
// unknown-outcome inserts (a failed insert RPC whose batch may or may not
// have applied) to applied or not-applied.
//
// Everything — workload, faults, clock — is a pure function of the seed:
// two runs with the same seed produce byte-identical event logs, so any
// oracle failure is reproducible with `lt_sim --seed=N`.
#ifndef LITTLETABLE_SIM_CHAOS_H_
#define LITTLETABLE_SIM_CHAOS_H_

#include <cstdint>

#include "sim/device_oracle.h"
#include "util/status.h"

namespace lt {
namespace sim {

struct ChaosOptions {
  uint64_t seed = 1;
  /// Workload operations to run (inserts, queries, flushes, maintenance).
  int ops = 200;
  /// Probability that a fault is injected before an operation.
  double fault_rate = 0.25;
  /// Simulated devices feeding the events table.
  int devices = 3;
  /// When > 0, run the self-monitoring sampler in deterministic mode and
  /// take one __sys_metrics_1s sample every N workload ops (driven at op
  /// boundaries on the harness thread, stamped with simulated time). The
  /// oracle then also checks §3.1 prefix durability of the system tables
  /// across every crash, and the report carries the sampled-metrics dump.
  int sample_every_ops = 0;
};

/// Runs one seeded chaos schedule. Returns a non-OK status only for
/// harness-level failures (e.g. the initial server refusing to start);
/// oracle violations come back as report->ok == false with the log
/// preserved. Uses process-global crash-point state: not reentrant, one
/// run at a time per process.
Status RunChaos(const ChaosOptions& options, SimReport* report);

}  // namespace sim
}  // namespace lt

#endif  // LITTLETABLE_SIM_CHAOS_H_
