#include "sim/device_oracle.h"

#include <algorithm>
#include <set>
#include <utility>

#include "cluster/cluster_client.h"
#include "core/bounds.h"
#include "net/client.h"

namespace lt {
namespace sim {

Schema EventsSchema() {
  return Schema({Column("device", ColumnType::kInt64),
                 Column("id", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("kind", ColumnType::kString),
                 Column("detail", ColumnType::kString)},
                /*num_key_columns=*/3);
}

void SimRecorder::Log(const std::string& line) {
  report_->event_log.push_back(
      "t=" + std::to_string(clock_->Now() - kSimEpoch) + " " + line);
}

void SimRecorder::Violation(const std::string& what) {
  if (!report_->ok) return;
  report_->ok = false;
  report_->failure = what;
  Log("ORACLE VIOLATION: " + what);
}

namespace {
apps::DeviceSimOptions FleetOptions(uint64_t seed) {
  apps::DeviceSimOptions fopts;
  fopts.seed = seed;
  fopts.birth = kSimEpoch;
  fopts.event_interval_sec = 20;
  fopts.unreachable_hour_prob = 0;  // Reachability is the grabber's problem.
  return fopts;
}
}  // namespace

DeviceOracle::DeviceOracle(SimRecorder* rec, uint64_t seed, int devices,
                           QueryChecks checks)
    : rec_(rec),
      devices_(devices),
      checks_(checks),
      fleet_(FleetOptions(seed)) {
  for (int d = 1; d <= devices; d++) {
    fleet_.AddDevice(static_cast<apps::DeviceId>(d));
    cursors_[d] = DeviceCursor{};
  }
}

template <typename ClientT>
void DeviceOracle::Insert(ClientT* client, Random* rng) {
  const int64_t device = PickDevice(rng);
  DeviceCursor& cur = cursors_[device];
  if (cur.dirty) {
    // Unknown outcome pending: the grabber's crash-recovery move is to ask
    // the server where it got to before resending (§3.1).
    Row row;
    bool found = false;
    Status s = client->LatestRow(kEventsTable, Key{Value::Int64(device)},
                                 &row, &found);
    rec_->Log("resync dev=" + std::to_string(device) + " status=" +
              s.ToString());
    if (!s.ok()) return;  // Still dirty; retry on a later insert.
    rec_->Count("resyncs");
    if (found && !CheckRowContent(row)) return;
    if (!ResolveFromLatest(device, found ? row[1].AsInt() : 0)) return;
  }
  const size_t batch = 1 + rng->Uniform(4);
  std::vector<apps::SimEvent> events =
      fleet_.Get(static_cast<apps::DeviceId>(device))
          ->EventsAfter(cur.last_id, rec_->clock()->Now(), batch);
  if (events.empty()) {
    rec_->Log("insert dev=" + std::to_string(device) + " no_events");
    return;
  }
  std::vector<Row> rows;
  rows.reserve(events.size());
  for (const apps::SimEvent& ev : events) {
    rows.push_back({Value::Int64(device), Value::Int64(ev.id),
                    Value::Ts(ev.ts), Value::String(ev.kind),
                    Value::String(ev.detail)});
  }
  Status s = client->Insert(kEventsTable, rows);
  InsertRecord rec;
  rec.device = device;
  rec.events = std::move(events);
  rec_->Log("insert dev=" + std::to_string(device) + " ids=[" +
            std::to_string(rec.events.front().id) + "," +
            std::to_string(rec.events.back().id) + "] status=" + s.ToString());
  if (s.ok()) {
    rec.state = InsertRecord::kCertain;
    cur.last_id = rec.events.back().id;
    rec_->Count("inserts_ok");
  } else {
    // The batch may have applied before the connection died. Record the
    // uncertainty; a later probe or crash-scan resolves it.
    rec.state = InsertRecord::kUnresolved;
    cur.dirty = true;
    rec_->Count("inserts_unresolved");
  }
  records_.push_back(std::move(rec));
}

template <typename ClientT>
void DeviceOracle::Query(ClientT* client, Random* rng) {
  const int64_t device = PickDevice(rng);
  std::vector<Row> rows;
  Status s = client->QueryAll(
      kEventsTable, QueryBounds::ForPrefix(Key{Value::Int64(device)}), &rows);
  rec_->Log("query dev=" + std::to_string(device) + " rows=" +
            std::to_string(rows.size()) + " status=" + s.ToString());
  if (!s.ok()) return;
  rec_->Count("queries_ok");
  VerifyDeviceRows(device, rows);
}

template <typename ClientT>
void DeviceOracle::LatestRow(ClientT* client, Random* rng) {
  const int64_t device = PickDevice(rng);
  Row row;
  bool found = false;
  Status s = client->LatestRow(kEventsTable, Key{Value::Int64(device)}, &row,
                               &found);
  rec_->Log("latest dev=" + std::to_string(device) + " found=" +
            std::to_string(found ? 1 : 0) + " status=" + s.ToString());
  if (!s.ok()) return;
  rec_->Count("latest_ok");
  if (found && !CheckRowContent(row)) return;
  ResolveFromLatest(device, found ? row[1].AsInt() : 0);
}

template void DeviceOracle::Insert(Client*, Random*);
template void DeviceOracle::Query(Client*, Random*);
template void DeviceOracle::LatestRow(Client*, Random*);
template void DeviceOracle::Insert(cluster::ClusterClient*, Random*);
template void DeviceOracle::Query(cluster::ClusterClient*, Random*);
template void DeviceOracle::LatestRow(cluster::ClusterClient*, Random*);

bool DeviceOracle::VerifyDeviceRows(int64_t device,
                                    const std::vector<Row>& rows) {
  std::set<int64_t> returned;
  for (const Row& row : rows) {
    if (!CheckRowContent(row)) return false;
    if (row[0].AsInt() != device) {
      rec_->Violation("query for device " + std::to_string(device) +
                      " returned device " + std::to_string(row[0].AsInt()));
      return false;
    }
    if (!returned.insert(row[1].AsInt()).second) {
      rec_->Violation("duplicate row id " + std::to_string(row[1].AsInt()) +
                      " for device " + std::to_string(device));
      return false;
    }
  }
  // Acknowledged batches must be fully present, and unknown-outcome
  // batches resolve to fully-present or fully-absent.
  for (InsertRecord& rec : records_) {
    if (rec.device != device || rec.state == InsertRecord::kDropped) continue;
    size_t present = 0;
    for (const apps::SimEvent& ev : rec.events) {
      present += returned.count(ev.id);
    }
    if (rec.state == InsertRecord::kCertain) {
      if (present != rec.events.size()) {
        const bool ship_durable =
            checks_ == QueryChecks::kReplicated && rec.durable > 0;
        rec_->Violation(std::string(ship_durable
                                        ? "ship-durable batch lost"
                                        : "query missing acknowledged rows") +
                        ": device=" + std::to_string(device) +
                        " batch through id " +
                        std::to_string(rec.events.back().id));
        return false;
      }
    } else if (present == rec.events.size()) {
      rec.state = InsertRecord::kCertain;
    } else if (present == 0) {
      rec.state = InsertRecord::kDropped;
    } else {
      rec_->Violation("partial batch visible: device=" +
                      std::to_string(device));
      return false;
    }
  }
  // Prefix durability per series on the promoted primary.
  if (checks_ == QueryChecks::kReplicated && !returned.empty() &&
      !CheckContiguous(device, *returned.rbegin(), returned.size())) {
    return false;
  }
  cursors_[device].last_id = MaxCertainId(device);
  cursors_[device].dirty = false;
  return true;
}

bool DeviceOracle::ResolveFromLatest(int64_t device, int64_t latest) {
  for (InsertRecord& rec : records_) {
    if (rec.device != device) continue;
    if (rec.state == InsertRecord::kDropped || rec.events.empty()) continue;
    const int64_t first = rec.events.front().id;
    const int64_t last = rec.events.back().id;
    if (rec.state == InsertRecord::kUnresolved) {
      if (latest >= last) {
        rec.state = InsertRecord::kCertain;
      } else if (latest < first) {
        rec.state = InsertRecord::kDropped;
      } else {
        rec_->Violation("partial batch application: device=" +
                        std::to_string(device) + " latest=" +
                        std::to_string(latest) + " inside batch [" +
                        std::to_string(first) + "," + std::to_string(last) +
                        "]");
        return false;
      }
    } else if (latest < last) {  // kCertain
      rec_->Violation("latest row id " + std::to_string(latest) +
                      " behind acknowledged insert through " +
                      std::to_string(last) + " for device " +
                      std::to_string(device));
      return false;
    }
  }
  const int64_t expect = MaxCertainId(device);
  if (latest != expect) {
    rec_->Violation("latest row mismatch for device " + std::to_string(device) +
                    ": got " + std::to_string(latest) + " want " +
                    std::to_string(expect));
    return false;
  }
  cursors_[device].last_id = latest;
  cursors_[device].dirty = false;
  return true;
}

bool DeviceOracle::CheckRowContent(const Row& row) {
  if (row.size() != 5) {
    rec_->Violation("row has " + std::to_string(row.size()) + " columns");
    return false;
  }
  const int64_t device = row[0].AsInt();
  const int64_t id = row[1].AsInt();
  const apps::SimEvent* ev = FindEvent(device, id);
  if (ev == nullptr) {
    rec_->Violation("phantom row: device=" + std::to_string(device) +
                    " id=" + std::to_string(id) +
                    " was never (or never certainly) inserted");
    return false;
  }
  if (row[2].AsInt() != ev->ts || row[3].bytes() != ev->kind ||
      row[4].bytes() != ev->detail) {
    rec_->Violation("row content mismatch: device=" + std::to_string(device) +
                    " id=" + std::to_string(id));
    return false;
  }
  return true;
}

bool DeviceOracle::CheckContiguous(int64_t device, int64_t max_id,
                                   uint64_t count) {
  if (max_id == static_cast<int64_t>(count)) return true;
  rec_->Violation("event ids not contiguous for device " +
                  std::to_string(device) + ": max=" + std::to_string(max_id) +
                  " count=" + std::to_string(count));
  return false;
}

const apps::SimEvent* DeviceOracle::FindEvent(int64_t device,
                                              int64_t id) const {
  for (const InsertRecord& rec : records_) {
    if (rec.device != device || rec.state == InsertRecord::kDropped) continue;
    for (const apps::SimEvent& ev : rec.events) {
      if (ev.id == id) return &ev;
    }
  }
  return nullptr;
}

int64_t DeviceOracle::MaxCertainId(int64_t device) const {
  int64_t max_id = 0;
  for (const InsertRecord& rec : records_) {
    if (rec.device != device || rec.state != InsertRecord::kCertain) continue;
    if (!rec.events.empty()) max_id = std::max(max_id, rec.events.back().id);
  }
  return max_id;
}

uint64_t DeviceOracle::CertainRows() const {
  uint64_t n = 0;
  for (const InsertRecord& rec : records_) {
    if (rec.state == InsertRecord::kCertain) n += rec.events.size();
  }
  return n;
}

}  // namespace sim
}  // namespace lt
