// Seeded overload chaos: firehose queries, slow readers, cancels, and
// concurrent ingest against one server, with an oracle for graceful
// degradation instead of durability.
//
// RunOverloadChaos stands up a DB + server on SimTransport with tight
// overload knobs — a small per-query byte budget, a couple of concurrent
// scan slots with a short queue-wait deadline, per-tenant token-bucket
// quotas, and a bounded simulated kernel send buffer (the slow-reader
// backpressure surface) — then drives a seeded schedule of:
//
//   - firehose queries issued on raw connections and left undrained (each
//     undrained connection IS a slow reader: the server streams until the
//     send buffer and its outbound budget fill, then the scan parks);
//   - draining those connections to completion in FIFO order (admission is
//     FIFO, so the front of the pending list always owns a slot or has
//     been shed — the drain can never deadlock behind itself);
//   - kCancel frames racing in-flight scans, and outright disconnects of
//     connections mid-stream (connection-close cancellation);
//   - inserts interleaved through a normal client (ingest must keep
//     flowing while scans are parked and queued).
//
// The oracle asserts the PR-10 contract: zero crashes; every issued query
// terminates with either rows or an explicit error reply whose code is one
// of the shed/cancel codes (never a hang, never a silent drop, never a
// surprise code); after the storm a plain query succeeds (service
// restored); and the server's accounted per-query peak
// (server.query_stream_peak_bytes) never exceeded the configured budget.
//
// Unlike sim/chaos.h this harness makes no event-log determinism promise:
// the server's worker threads race the schedule by design (whether a
// cancel beats its scan is real concurrency). The seed fixes the workload;
// the oracle properties must hold on every interleaving.
#ifndef LITTLETABLE_SIM_OVERLOAD_CHAOS_H_
#define LITTLETABLE_SIM_OVERLOAD_CHAOS_H_

#include <cstddef>
#include <cstdint>

#include "sim/device_oracle.h"
#include "util/status.h"

namespace lt {
namespace sim {

struct OverloadChaosOptions {
  uint64_t seed = 1;
  /// Schedule steps (query issues, drains, cancels, disconnects, inserts).
  int ops = 300;
  /// Devices keyed into the events table (query fan-out axis).
  int devices = 4;
  /// Rows preloaded before the storm so scans dwarf the byte budget.
  int preload_rows = 2000;
  /// Server-side per-query streaming byte budget (the oracle's bound).
  size_t query_budget_bytes = 8 * 1024;
  /// Admission knobs.
  size_t max_concurrent_scans = 2;
  size_t max_queued_scans = 3;
  int queue_wait_timeout_ms = 200;
  /// Default per-tenant quota applied to bound tenants (0 = no quota on
  /// that axis). Firehose connections bind tenants 1..3. The default is
  /// deliberately below the schedule's per-tenant arrival rate so quota
  /// sheds actually occur.
  double tenant_queries_per_sec = 2;
  double tenant_rows_per_sec = 0;
  /// Simulated kernel send-buffer cap per connection direction — what makes
  /// an undrained connection exert real backpressure.
  size_t conn_buffer_bytes = 4 * 1024;
  /// Most firehose queries left in flight at once.
  size_t max_pending = 8;
};

/// Runs one seeded overload schedule. Non-OK only for harness-level
/// failures; oracle violations come back as report->ok == false.
/// The report's counters include queries_issued, queries_rows, shed_busy,
/// shed_exhausted, cancelled, disconnects, inserts_ok and peak_bytes_max.
Status RunOverloadChaos(const OverloadChaosOptions& options, SimReport* report);

}  // namespace sim
}  // namespace lt

#endif  // LITTLETABLE_SIM_OVERLOAD_CHAOS_H_
