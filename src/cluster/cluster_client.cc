#include "cluster/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/cursor.h"
#include "core/db.h"
#include "core/row_codec.h"
#include "util/coding.h"

namespace lt {
namespace cluster {

using wire::ErrCode;
using wire::MsgType;

namespace {

// Backoff between routed-request retries: doubling from the initial delay
// up to the cap.
constexpr int64_t kBackoffInitialMs = 20;
constexpr int64_t kBackoffMaxMs = 500;

}  // namespace

ClusterClient::ClusterClient(const ClusterClientOptions& options)
    : opts_(options) {}

Status ClusterClient::Connect(const std::string& coord_host,
                              uint16_t coord_port,
                              const ClusterClientOptions& options,
                              std::unique_ptr<ClusterClient>* out) {
  auto cc = std::unique_ptr<ClusterClient>(new ClusterClient(options));
  ClientOptions copts = options.client;
  copts.transport = options.transport;
  LT_RETURN_IF_ERROR(
      Client::Connect(coord_host, coord_port, copts, &cc->coord_));
  LT_RETURN_IF_ERROR(cc->RefreshMap());
  *out = std::move(cc);
  return Status::OK();
}

Status ClusterClient::RefreshMap() {
  MsgType rt;
  std::string rb;
  LT_RETURN_IF_ERROR(coord_->Call(MsgType::kGetShardMap, "", &rt, &rb));
  if (rt != MsgType::kShardMapResult) {
    return Status::NetworkError("coordinator returned no shard map");
  }
  Slice in(rb);
  ShardMap fresh;
  LT_RETURN_IF_ERROR(ShardMap::Decode(&in, &fresh));
  // Never go backwards: a delayed reply must not reinstate a stale map.
  if (fresh.epoch >= map_.epoch) map_ = std::move(fresh);
  return Status::OK();
}

Client* ClusterClient::ClientFor(const Endpoint& ep) {
  const std::string key = ep.ToString();
  auto it = clients_.find(key);
  if (it != clients_.end()) return it->second.get();
  ClientOptions copts = opts_.client;
  copts.transport = opts_.transport;
  copts.max_retries = 0;  // RoutedCall owns retry + map-refresh policy.
  std::unique_ptr<Client> client;
  if (!Client::Connect(ep.host, ep.port, copts, &client).ok()) return nullptr;
  Client* raw = client.get();
  clients_[key] = std::move(client);
  return raw;
}

void ClusterClient::DropClient(const Endpoint& ep) {
  clients_.erase(ep.ToString());
}

void ClusterClient::Backoff(int attempt) {
  int64_t delay = kBackoffInitialMs;
  for (int i = 0; i < attempt && delay < kBackoffMaxMs; i++) {
    delay *= 2;
  }
  delay = std::min(delay, kBackoffMaxMs);
  if (opts_.client.backoff_sleep) {
    opts_.client.backoff_sleep(delay);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

bool ClusterClient::BodyHasCode(const std::string& body, ErrCode code) {
  return !body.empty() && static_cast<ErrCode>(body[0]) == code;
}

Status ClusterClient::RoutedCall(uint32_t group_id, MsgType op,
                                 const std::string& inner, MsgType* rt,
                                 std::string* rb, int* attempts_out) {
  return Routed(
      group_id, inner, /*retry_busy=*/true,
      [&](Client* client, const std::string& body) {
        return client->Call(op, body, rt, rb);
      },
      rt, rb, attempts_out);
}

Status ClusterClient::Routed(uint32_t group_id, const std::string& inner,
                             bool retry_busy, const Attempt& attempt_fn,
                             const MsgType* rt, const std::string* rb,
                             int* attempts_out) {
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt <= opts_.max_retries; attempt++) {
    if (attempt > 0) {
      Backoff(attempt - 1);
      RefreshMap();  // Best-effort; stale maps fail fast with kWrongShard.
    }
    const ShardGroupInfo* g = map_.GroupById(group_id);
    if (g == nullptr) {
      return Status::NotFound("no shard group " + std::to_string(group_id));
    }
    const Endpoint primary = g->primary;
    Client* client = ClientFor(primary);
    if (client == nullptr) {
      last = Status::Unavailable("primary unreachable: " + primary.ToString());
      continue;
    }
    std::string body;
    PutVarint32(&body, group_id);
    PutVarint64(&body, map_.epoch);
    body += inner;
    last = attempt_fn(client, body);
    if (!last.ok()) {
      if (!Client::IsConnectionError(last)) return last;
      DropClient(primary);
      continue;
    }
    if (*rt == MsgType::kError && BodyHasCode(*rb, ErrCode::kWrongShard)) {
      last = Status::Aborted("wrong shard");
      continue;
    }
    if (retry_busy && *rt == MsgType::kError &&
        BodyHasCode(*rb, ErrCode::kServerBusy)) {
      // Replication window full (or draining): give the shipper a chance.
      last = Status::Unavailable("shard busy");
      continue;
    }
    if (attempts_out != nullptr) *attempts_out = attempt;
    return Status::OK();
  }
  return last;
}

Result<std::shared_ptr<const Schema>> ClusterClient::SchemaFor(
    const std::string& table) {
  auto it = schema_cache_.find(table);
  if (it != schema_cache_.end()) return it->second;
  if (map_.groups.empty()) return Status::NotFound("empty shard map");
  std::string inner;
  inner.push_back(static_cast<char>(MsgType::kGetTable));
  PutLengthPrefixedSlice(&inner, table);
  MsgType rt;
  std::string rb;
  LT_RETURN_IF_ERROR(RoutedCall(map_.groups.front().id, MsgType::kRoutedQuery,
                                inner, &rt, &rb));
  if (rt == MsgType::kError) return Client::ErrorFromBody(Slice(rb));
  if (rt != MsgType::kTableInfo) {
    return Status::NetworkError("unexpected response to schema fetch");
  }
  Slice in(rb);
  Schema schema;
  LT_RETURN_IF_ERROR(Schema::DecodeFrom(&in, &schema));
  auto shared = std::make_shared<const Schema>(std::move(schema));
  schema_cache_[table] = shared;
  return shared;
}

Result<std::shared_ptr<const Schema>> ClusterClient::TableSchema(
    const std::string& table) {
  return SchemaFor(table);
}

Status ClusterClient::CreateTable(const std::string& table,
                                  const Schema& schema, Timestamp ttl) {
  if (DB::IsSystemTableName(table)) {
    return Status::InvalidArgument(
        "__sys tables cannot be created through the cluster");
  }
  std::string inner;
  PutLengthPrefixedSlice(&inner, table);
  schema.EncodeTo(&inner);
  PutVarint64(&inner, static_cast<uint64_t>(ttl));
  const ShardMap snapshot = map_;
  for (const ShardGroupInfo& g : snapshot.groups) {
    MsgType rt;
    std::string rb;
    LT_RETURN_IF_ERROR(
        RoutedCall(g.id, MsgType::kRoutedCreate, inner, &rt, &rb));
    if (rt == MsgType::kError) {
      // A rerun after a partial earlier attempt hits AlreadyExists on the
      // groups that got the table; the goal state is reached either way.
      if (BodyHasCode(rb, ErrCode::kAlreadyExists)) continue;
      return Client::ErrorFromBody(Slice(rb));
    }
  }
  return Status::OK();
}

Status ClusterClient::Insert(const std::string& table,
                             const std::vector<Row>& rows) {
  if (DB::IsSystemTableName(table)) {
    return Status::InvalidArgument(
        "__sys tables are not writable through the cluster");
  }
  if (rows.empty()) return Status::OK();
  for (int schema_attempt = 0; schema_attempt < 2; schema_attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaFor(table));
    // Partition the batch by owning group. Batch atomicity is per group
    // after this point — the cross-group pieces of one caller batch are
    // independent inserts, like the paper's independent shards.
    std::map<uint32_t, std::vector<const Row*>> by_group;
    for (const Row& row : rows) {
      if (!schema->RowMatches(row)) {
        return Status::InvalidArgument("row does not match table schema");
      }
      const ShardGroupInfo* g = map_.GroupForHash(RouteHash(*schema, row));
      if (g == nullptr) return Status::NotFound("shard map coverage gap");
      by_group[g->id].push_back(&row);
    }
    bool schema_changed = false;
    for (const auto& [gid, part] : by_group) {
      std::string inner;
      PutLengthPrefixedSlice(&inner, table);
      PutVarint32(&inner, schema->version());
      PutVarint32(&inner, static_cast<uint32_t>(part.size()));
      for (const Row* row : part) EncodeRow(&inner, *schema, *row);
      MsgType rt;
      std::string rb;
      int attempts = 0;
      LT_RETURN_IF_ERROR(RoutedCall(gid, MsgType::kRoutedInsert, inner, &rt,
                                    &rb, &attempts));
      if (rt == MsgType::kOk) continue;
      if (rt != MsgType::kError) {
        return Status::NetworkError("unexpected response");
      }
      if (BodyHasCode(rb, ErrCode::kSchemaChanged)) {
        schema_changed = true;
        break;
      }
      if (BodyHasCode(rb, ErrCode::kAlreadyExists) && attempts > 0) {
        // The batch landed on an earlier attempt whose connection died
        // before the ack — §3.4.4 key uniqueness turns the blind retry
        // into a duplicate-detection probe.
        continue;
      }
      return Client::ErrorFromBody(Slice(rb));
    }
    if (!schema_changed) return Status::OK();
    schema_cache_.erase(table);
  }
  return Status::Aborted("schema changed repeatedly");
}

Status ClusterClient::QueryGroup(uint32_t group_id, const std::string& table,
                                 const QueryBounds& bounds,
                                 QueryResult* result) {
  result->rows.clear();
  result->more_available = false;
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema, SchemaFor(table));
  std::string inner;
  inner.push_back(static_cast<char>(MsgType::kQuery));
  PutLengthPrefixedSlice(&inner, table);
  PutVarint32(&inner, schema->version());
  wire::EncodeBounds(&inner, *schema, bounds);

  // A routed query does not retry kServerBusy: that answer means its wait
  // for a scan slot expired, and the caller decides what to do about load.
  MsgType rt = MsgType::kQueryChunk;
  std::string rb;
  LT_RETURN_IF_ERROR(Routed(
      group_id, inner, /*retry_busy=*/false,
      [&](Client* client, const std::string& body) {
        result->rows.clear();
        result->more_available = false;
        rt = MsgType::kQueryChunk;
        return client->CallStream(
            MsgType::kRoutedQuery, body,
            [&](MsgType type, Slice in, bool* done) -> Status {
              if (type == MsgType::kError) {
                rt = type;
                rb = in.ToString();
                *done = true;
                return Status::OK();
              }
              if (type != MsgType::kQueryChunk) {
                return Status::NetworkError("unexpected response");
              }
              uint8_t flags;
              LT_RETURN_IF_ERROR(
                  Client::DecodeQueryChunk(in, *schema, &flags, &result->rows));
              if (flags & wire::kChunkFinal) {
                result->more_available = flags & wire::kChunkMoreAvailable;
                *done = true;
              }
              return Status::OK();
            });
      },
      &rt, &rb));
  if (rt == MsgType::kError) return Client::ErrorFromBody(Slice(rb));
  return Status::OK();
}

Status ClusterClient::Query(const std::string& table,
                            const QueryBounds& bounds, QueryResult* result) {
  result->rows.clear();
  result->more_available = false;
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema, SchemaFor(table));

  // A query whose key bounds pin the same first key cell lives entirely in
  // one group (the routing hash covers only that cell).
  std::vector<uint32_t> group_ids;
  if (bounds.min_key && bounds.max_key && !bounds.min_key->prefix.empty() &&
      !bounds.max_key->prefix.empty()) {
    std::string lo, hi;
    const ColumnType t0 = schema->columns()[0].type;
    EncodeValue(&lo, bounds.min_key->prefix[0], t0);
    EncodeValue(&hi, bounds.max_key->prefix[0], t0);
    if (lo == hi) {
      const ShardGroupInfo* g =
          map_.GroupForHash(RouteHashPrefix(*schema, bounds.min_key->prefix));
      if (g == nullptr) return Status::NotFound("shard map coverage gap");
      group_ids.push_back(g->id);
    }
  }
  if (group_ids.empty()) {
    for (const ShardGroupInfo& g : map_.groups) group_ids.push_back(g.id);
  }

  if (group_ids.size() == 1) {
    return QueryGroup(group_ids[0], table, bounds, result);
  }

  // Fan out, then merge the per-group streams — each is already in key
  // order, and groups partition the key space by series, so the merge heap
  // sees disjoint key sets.
  bool any_more = false;
  std::vector<std::unique_ptr<Cursor>> cursors;
  cursors.reserve(group_ids.size());
  for (uint32_t gid : group_ids) {
    QueryResult part;
    LT_RETURN_IF_ERROR(QueryGroup(gid, table, bounds, &part));
    any_more = any_more || part.more_available;
    if (bounds.direction == Direction::kDescending) {
      // VectorCursor expects ascending storage order; the server streamed
      // rows in scan (descending) order.
      std::reverse(part.rows.begin(), part.rows.end());
    }
    cursors.push_back(std::make_unique<VectorCursor>(
        schema.get(), std::move(part.rows), bounds.direction));
  }
  MergingCursor merge(schema.get(), std::move(cursors), bounds.direction);
  while (merge.Valid()) {
    if (bounds.limit > 0 && result->rows.size() >= bounds.limit) {
      result->more_available = true;
      return Status::OK();
    }
    merge.MaterializeRow(&result->rows.emplace_back());
    LT_RETURN_IF_ERROR(merge.Next());
  }
  LT_RETURN_IF_ERROR(merge.status());
  result->more_available = any_more;
  return Status::OK();
}

Status ClusterClient::QueryAll(const std::string& table,
                               const QueryBounds& bounds,
                               std::vector<Row>* rows) {
  rows->clear();
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema, SchemaFor(table));
  return QueryAllPages(*schema, bounds, rows,
                       [&](const QueryBounds& page, QueryResult* result) {
                         return Query(table, page, result);
                       });
}

Status ClusterClient::LatestRow(const std::string& table, const Key& prefix,
                                Row* row, bool* found) {
  *found = false;
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema, SchemaFor(table));
  std::string inner;
  inner.push_back(static_cast<char>(MsgType::kLatestRow));
  PutLengthPrefixedSlice(&inner, table);
  PutVarint32(&inner, schema->version());
  wire::EncodeKeyPrefix(&inner, *schema, prefix);

  std::vector<uint32_t> group_ids;
  if (!prefix.empty()) {
    const ShardGroupInfo* g =
        map_.GroupForHash(RouteHashPrefix(*schema, prefix));
    if (g == nullptr) return Status::NotFound("shard map coverage gap");
    group_ids.push_back(g->id);
  } else {
    for (const ShardGroupInfo& g : map_.groups) group_ids.push_back(g.id);
  }

  Timestamp best_ts = 0;
  for (uint32_t gid : group_ids) {
    MsgType rt;
    std::string rb;
    LT_RETURN_IF_ERROR(
        RoutedCall(gid, MsgType::kRoutedQuery, inner, &rt, &rb));
    if (rt == MsgType::kError) return Client::ErrorFromBody(Slice(rb));
    if (rt != MsgType::kRowResult) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(rb);
    if (in.empty()) return Status::Corruption("bad row result");
    const bool has_row = in[0] != 0;
    in.remove_prefix(1);
    uint32_t version;
    if (!GetVarint32(&in, &version)) {
      return Status::Corruption("bad row result");
    }
    if (version != schema->version()) {
      return Status::Aborted("schema changed mid-request");
    }
    if (!has_row) continue;
    Row cand;
    LT_RETURN_IF_ERROR(DecodeRow(&in, *schema, &cand));
    const Timestamp ts = cand[schema->ts_index()].AsInt();
    if (!*found || ts > best_ts) {
      best_ts = ts;
      *row = std::move(cand);
      *found = true;
    }
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace lt
