// The device-workload oracle shared by the seeded chaos harnesses, and the
// report every harness fills.
//
// The single-node (sim/chaos.h) and replicated (sim/cluster_chaos.h)
// harnesses drive the same workload: simulated devices (apps::DeviceFleet)
// append events to the "events" table, keyed (device, id, ts) with ids
// contiguous from 1 per device. DeviceOracle is the model of what those
// inserts did, and the checks of the paper's §3.1 contract against it:
//
//   - every insert RPC becomes an InsertRecord: kCertain when acknowledged,
//     kUnresolved when the RPC failed (the batch may or may not have
//     applied), kDropped once known never-applied or wholly lost;
//   - a device query must return exactly the model's rows: no phantoms, no
//     duplicates, content equal to what the generator produced, every
//     acknowledged batch whole, and every unresolved batch either whole
//     (now certain) or absent (now dropped), never partial;
//   - a latest-row answer resolves unresolved batches the same way and must
//     equal the device's highest certain id;
//   - a device with an unresolved insert resyncs from LatestRow before its
//     next insert (the §3.1 grabber's recovery move).
//
// What is particular to a harness stays in it and works on records(): the
// single-node FlushThrough prefix walk and post-crash scan, the cluster's
// ship rounds and failover bookkeeping.
#ifndef LITTLETABLE_SIM_DEVICE_ORACLE_H_
#define LITTLETABLE_SIM_DEVICE_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/device_sim.h"
#include "core/schema.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"

namespace lt {
namespace sim {

/// Simulated time starts here in every harness (no real time may leak into
/// a simulation); log lines carry the microseconds since it.
constexpr Timestamp kSimEpoch = Timestamp{1700000000} * 1000000;
constexpr char kEventsTable[] = "events";

/// The events table: key (device, id, ts), values kind and detail.
Schema EventsSchema();

/// What one harness run reports.
struct SimReport {
  /// False if the oracle detected a contract violation.
  bool ok = true;
  /// Human-readable description of the first violation ("" when ok).
  std::string failure;
  /// One line per simulated action. For the single-node and cluster
  /// harnesses it is deterministic from the seed: two runs with the same
  /// seed must produce identical logs (lt_sim --verify-seed and sim_test
  /// assert exactly that). The overload harness promises no determinism.
  std::vector<std::string> event_log;
  /// Counters: ops by kind, faults injected, crashes survived, rows
  /// confirmed durable, ship rounds, sheds.
  std::map<std::string, uint64_t> counters;
  /// Single-node runs with sample_every_ops > 0: one line per system-table
  /// row that survived to the end of the run ("<table> <metric> ts=<t>
  /// v=<value>"), in key order. A pure function of the seed — two same-seed
  /// runs must produce byte-identical dumps (sim_test pins this), and the
  /// nightly sweep uploads them as its sampled-metrics artifact.
  std::vector<std::string> sys_metrics;
};

/// A run's simulated clock and its report: log lines stamped with simulated
/// time, counters, and the first oracle violation.
class SimRecorder {
 public:
  explicit SimRecorder(SimReport* report)
      : report_(report), clock_(std::make_shared<SimClock>(kSimEpoch)) {}

  void Log(const std::string& line);
  void Count(const std::string& key, uint64_t n = 1) {
    report_->counters[key] += n;
  }
  /// Records the first oracle violation; the harness stops at the next op
  /// boundary once report()->ok is false.
  void Violation(const std::string& what);

  SimReport* report() const { return report_; }
  const std::shared_ptr<SimClock>& clock() const { return clock_; }

 private:
  SimReport* const report_;
  const std::shared_ptr<SimClock> clock_;
};

/// One insert RPC and what the model knows about its outcome.
struct InsertRecord {
  enum State {
    kCertain,     // Acknowledged, or a later read confirmed it applied.
    kUnresolved,  // The RPC failed (or its acking primary died outside the
                  // last ship round): the batch may or may not have applied.
    kDropped,     // Confirmed never-applied, or wholly lost.
  };
  int64_t device = 0;
  std::vector<apps::SimEvent> events;  // Ascending ids, ascending ts.
  State state = kCertain;
  /// Leading events guaranteed to survive any crash. Single node: covered
  /// by a successful FlushThrough, or already read back after a crash.
  /// Cluster: the whole batch once a completed ship round covers it (on
  /// disk on both replicas). Losing any of them is an oracle violation.
  size_t durable = 0;
};

/// Where the model believes a device's event stream stands.
struct DeviceCursor {
  int64_t last_id = 0;  // Highest event id the model believes is inserted.
  /// A failed insert left the outcome unknown; the next insert for this
  /// device must first resolve it with a LatestRow probe.
  bool dirty = false;
};

/// Which device-query checks a harness asks for.
enum class QueryChecks {
  /// Single node: a query missing any acknowledged row says so; id
  /// contiguity is checked by the harness's post-crash full scan.
  kSingleNode,
  /// Replicated: device queries are how a failover is judged, so each also
  /// checks the device's ids are contiguous from 1, and names a missing
  /// batch that a completed ship round covered a lost ship-durable batch.
  kReplicated,
};

class DeviceOracle {
 public:
  /// Models devices 1..`devices` of a fleet generated from `seed`,
  /// recording into `rec` (whose clock stamps the generated events).
  DeviceOracle(SimRecorder* rec, uint64_t seed, int devices,
               QueryChecks checks);

  // ---- Workload ops, shared by Client and cluster::ClusterClient. ----

  /// Picks a device; resyncs it from LatestRow if its last insert is
  /// unresolved; inserts its next 1..4 events and records the outcome.
  template <typename ClientT>
  void Insert(ClientT* client, Random* rng);
  /// Picks a device, queries all its rows, and verifies them.
  template <typename ClientT>
  void Query(ClientT* client, Random* rng);
  /// Picks a device, reads its latest row, and resolves against it.
  template <typename ClientT>
  void LatestRow(ClientT* client, Random* rng);

  // ---- Checks; each returns false after flagging a violation. ----

  /// `rows` is a complete, settled answer for `device` (the harnesses are
  /// single-threaded): it must hold exactly the model's rows. Resolves
  /// unresolved batches to certain or dropped.
  bool VerifyDeviceRows(int64_t device, const std::vector<Row>& rows);
  /// Resolves `device`'s unresolved inserts against the id the server
  /// reports as its latest (0 = no row), which must be the highest certain
  /// id.
  bool ResolveFromLatest(int64_t device, int64_t latest);
  /// True if `row` equals the model's event with its (device, id).
  bool CheckRowContent(const Row& row);
  /// True if a device whose highest surviving id is `max_id` holds `count`
  /// rows, i.e. its ids are exactly 1..count.
  bool CheckContiguous(int64_t device, int64_t max_id, uint64_t count);

  /// The model event for (device, id) among non-dropped records.
  const apps::SimEvent* FindEvent(int64_t device, int64_t id) const;
  /// Rows in certain records: the run's durable_rows counter.
  uint64_t CertainRows() const;

  std::vector<InsertRecord>& records() { return records_; }  // Insert order.
  std::map<int64_t, DeviceCursor>& cursors() { return cursors_; }

 private:
  int64_t PickDevice(Random* rng) const {
    return 1 + static_cast<int64_t>(rng->Uniform(devices_));
  }
  int64_t MaxCertainId(int64_t device) const;

  SimRecorder* const rec_;
  const int devices_;
  const QueryChecks checks_;
  apps::DeviceFleet fleet_;
  std::vector<InsertRecord> records_;
  std::map<int64_t, DeviceCursor> cursors_;
};

}  // namespace sim
}  // namespace lt

#endif  // LITTLETABLE_SIM_DEVICE_ORACLE_H_
