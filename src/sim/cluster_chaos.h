// Seeded multi-node chaos simulation for the replicated cluster layer.
//
// RunClusterChaos builds a whole replicated deployment in one process — a
// coordinator plus `groups` two-node shard groups, each node with its own
// DB on its own simulated disk, all speaking the real wire protocol over
// one SimTransport with per-machine attribution — and drives a routed
// ClusterClient workload while a seeded scheduler injects the cluster's
// fault surface:
//
//   - primary crashes (connections severed, DB abandoned, unsynced bytes
//     dropped), with both outcomes exercised: a quick restart that resumes
//     the primary role on a fresh replication stream, and a full failover
//     where the coordinator promotes the secondary and the old primary
//     rejoins as a strict-prefix secondary;
//   - secondary crashes and rejoins (the shipper's peer picture self-heals
//     from the set-sync reply);
//   - primary<->secondary link partitions (replication stalls while client
//     traffic keeps flowing), torn replication frames, delayed delivery,
//     connection resets, and armed crash points in the flush/ship path.
//
// The oracle models every routed insert and checks, after each crash and
// at the end (which always forces one last failover per group):
//   - acknowledged inserts covered by a completed ship round (ShipOnce
//     returning OK means everything acked before the call is durable on
//     BOTH replicas) are NEVER lost, across any schedule;
//   - inserts acked after the last completed round may die with a crashed
//     primary — the documented §3.1 redo-window loss — but only as whole
//     batches, and only such that each device's surviving ids stay
//     contiguous from 1 (prefix durability on the promoted primary);
//   - query results contain exactly the modeled rows: no phantoms, no
//     duplicates, no partial batches, content byte-equal to the generator.
//
// Everything is a pure function of the seed: two runs with the same seed
// produce byte-identical event logs (`lt_sim --cluster --verify-seed`).
#ifndef LITTLETABLE_SIM_CLUSTER_CHAOS_H_
#define LITTLETABLE_SIM_CLUSTER_CHAOS_H_

#include <cstdint>

#include "sim/device_oracle.h"
#include "util/status.h"

namespace lt {
namespace sim {

struct ClusterChaosOptions {
  uint64_t seed = 1;
  /// Workload operations (routed inserts, queries, latest-row probes).
  int ops = 200;
  /// Probability that a fault is injected before an operation.
  double fault_rate = 0.25;
  /// Simulated devices feeding the events table (spread across groups by
  /// the routing hash).
  int devices = 4;
  /// Two-node shard groups behind the coordinator.
  int groups = 1;
};

/// Runs one seeded multi-node chaos schedule. Non-OK only for harness
/// failures; oracle violations come back as report->ok == false. Uses
/// process-global crash-point state: one run at a time per process.
Status RunClusterChaos(const ClusterChaosOptions& options, SimReport* report);

}  // namespace sim
}  // namespace lt

#endif  // LITTLETABLE_SIM_CLUSTER_CHAOS_H_
