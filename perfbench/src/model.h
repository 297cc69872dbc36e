// The benchmark's data generator and reference model.
//
// Every workload writes the paper's Figure-1 usage shape: one row per
// (network, device, poll) holding two byte counters. A fleet of devices is
// split into groups of 512 — one grabber poll of one group is one insert
// batch — and every cell is a pure function of (seed, device, poll), so the
// model never stores rows: it knows how many polls of each group were
// acknowledged and regenerates whatever a check needs from that.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/schema.h"
#include "util/clock.h"

namespace perfbench {

using lt::Row;
using lt::Timestamp;

/// Rows per insert batch: one grabber poll of one device group (§5.1).
constexpr int kBatchRows = 512;

/// 2026-01-01T00:00:00Z, a Thursday, so it is aligned to the epoch's week,
/// day and 4-hour period boundaries.
constexpr Timestamp kBaseTime = 1767225600LL * lt::kMicrosPerSecond;

inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// (network, device, ts) -> rx, tx. Key columns first, as §3.1 requires.
inline lt::Schema UsageSchema() {
  using lt::Column;
  using lt::ColumnType;
  return lt::Schema({Column("network", ColumnType::kInt64),
                     Column("device", ColumnType::kInt64),
                     Column("ts", ColumnType::kTimestamp),
                     Column("rx", ColumnType::kInt64),
                     Column("tx", ColumnType::kInt64)},
                    /*num_key_columns=*/3);
}

/// Order-independent fingerprint of one row's cells; a scan's checksum is
/// the wrapping sum over its rows.
inline uint64_t RowHash(int64_t network, int64_t device, Timestamp ts,
                        int64_t rx, int64_t tx) {
  uint64_t h = Mix64(static_cast<uint64_t>(network) * 0x100000001b3ull);
  h = Mix64(h ^ static_cast<uint64_t>(device));
  h = Mix64(h ^ static_cast<uint64_t>(ts));
  h = Mix64(h ^ static_cast<uint64_t>(rx));
  return Mix64(h ^ static_cast<uint64_t>(tx));
}

/// A fleet of `networks` × `devices_per_network` devices polled every
/// `interval`, poll 0 at `t0`. Global device index i maps to network
/// i / devices_per_network and device i % devices_per_network, so a group's
/// 512 consecutive indices are already in primary-key order.
struct Fleet {
  uint64_t seed = 1;
  int networks = 0;
  int devices_per_network = 0;
  Timestamp t0 = kBaseTime;
  Timestamp interval = 60 * lt::kMicrosPerSecond;

  int devices() const { return networks * devices_per_network; }
  int groups() const { return devices() / kBatchRows; }
  int GroupOf(int device_index) const { return device_index / kBatchRows; }

  int64_t NetworkId(int i) const { return 1 + i / devices_per_network; }
  int64_t DeviceId(int i) const { return 1000 + i % devices_per_network; }
  Timestamp PollTime(int64_t poll) const { return t0 + poll * interval; }

  /// Inverse of the key mapping; false for keys the fleet never writes.
  bool IndexOf(int64_t network, int64_t device, int* index) const {
    int64_t n = network - 1, d = device - 1000;
    if (n < 0 || n >= networks || d < 0 || d >= devices_per_network) {
      return false;
    }
    *index = static_cast<int>(n * devices_per_network + d);
    return true;
  }
  /// Poll number of `ts`; false when ts is off the poll grid.
  bool PollOf(Timestamp ts, int64_t* poll) const {
    if (ts < t0 || (ts - t0) % interval != 0) return false;
    *poll = (ts - t0) / interval;
    return true;
  }

  int64_t Rx(int i, int64_t poll) const {
    return static_cast<int64_t>(
        Mix64(seed ^ Mix64(static_cast<uint64_t>(i) << 32 ^
                           static_cast<uint64_t>(poll))) %
        1000000);
  }
  int64_t Tx(int i, int64_t poll) const {
    return static_cast<int64_t>(
        Mix64(~seed ^ Mix64(static_cast<uint64_t>(poll) << 32 ^
                            static_cast<uint64_t>(i))) %
        250000);
  }

  Row MakeRow(int i, int64_t poll) const {
    return Row{lt::Value::Int64(NetworkId(i)), lt::Value::Int64(DeviceId(i)),
               lt::Value::Ts(PollTime(poll)), lt::Value::Int64(Rx(i, poll)),
               lt::Value::Int64(Tx(i, poll))};
  }
  uint64_t Hash(int i, int64_t poll) const {
    return RowHash(NetworkId(i), DeviceId(i), PollTime(poll), Rx(i, poll),
                   Tx(i, poll));
  }

  /// One grabber poll of one group: 512 rows in key order.
  std::vector<Row> Batch(int group, int64_t poll) const {
    std::vector<Row> rows;
    rows.reserve(kBatchRows);
    for (int k = 0; k < kBatchRows; k++) {
      rows.push_back(MakeRow(group * kBatchRows + k, poll));
    }
    return rows;
  }
};

/// What a scan of the whole table must return.
struct ScanExpectation {
  uint64_t rows = 0;
  uint64_t checksum = 0;     // Sum of RowHash over every row.
  uint64_t rx_checksum = 0;  // Same, with tx as the default 0 (projections).
};

/// `polls[g]` is how many polls group g holds. Polls of one group are
/// always written in ascending order, so they are polls [0, polls[g]); the
/// scan covers those from poll `first` on.
inline ScanExpectation ExpectScan(const Fleet& f,
                                  const std::vector<int64_t>& polls,
                                  int64_t first = 0) {
  ScanExpectation e;
  for (int i = 0; i < f.devices(); i++) {
    const int64_t n = polls[static_cast<size_t>(f.GroupOf(i))];
    for (int64_t p = first; p < n; p++) {
      e.rows++;
      e.checksum += f.Hash(i, p);
      e.rx_checksum += RowHash(f.NetworkId(i), f.DeviceId(i), f.PollTime(p),
                               f.Rx(i, p), 0);
    }
  }
  return e;
}

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
