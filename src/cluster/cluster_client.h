// ClusterClient: the routing client for a replicated LittleTable cluster.
//
// Wraps plain Clients with the shard map: it fetches (and caches) the map
// from the coordinator, routes each insert batch to the primary of the
// group owning the row's series hash, fans read queries out to every
// relevant group and merge-sorts the streams through the same tournament
// heap a single node uses, and owns the staleness protocol — a kWrongShard
// answer (or a dead connection) triggers a map refetch and a bounded
// retry with backoff. Inserts are retried too, which the server makes safe:
// LittleTable keys are unique at insert (§3.4.4), so a batch that actually
// landed before the connection died fails its retry with AlreadyExists —
// reported here as success.
//
// Thread safety: like Client, a ClusterClient serializes nothing — use one
// per concurrent stream.
#ifndef LITTLETABLE_CLUSTER_CLUSTER_CLIENT_H_
#define LITTLETABLE_CLUSTER_CLUSTER_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "net/client.h"

namespace lt {
namespace cluster {

struct ClusterClientOptions {
  /// Template for the per-node connections (transport is overridden).
  ClientOptions client;
  /// Transport; null = real TCP.
  net::Transport* transport = nullptr;
  /// Retries per routed request across map refreshes / failovers. Each
  /// retry refetches the shard map, so this bounds how many probe rounds a
  /// request survives waiting for a failover to complete. Retries back
  /// off 20 ms, doubling up to 500 ms; the sleep goes through
  /// client.backoff_sleep when set — the chaos harness injects a hook that
  /// advances simulated time and pumps the coordinator.
  int max_retries = 8;
};

class ClusterClient {
 public:
  /// Connects to the coordinator and fetches the initial shard map.
  static Status Connect(const std::string& coord_host, uint16_t coord_port,
                        const ClusterClientOptions& options,
                        std::unique_ptr<ClusterClient>* out);

  /// Refetches the shard map from the coordinator.
  Status RefreshMap();

  ShardMap map() const { return map_; }
  uint64_t epoch() const { return map_.epoch; }

  /// Creates the table on EVERY shard group (rows of any series must find
  /// their table wherever they hash). AlreadyExists on a group — e.g. a
  /// rerun after a partial failure — counts as success.
  Status CreateTable(const std::string& table, const Schema& schema,
                     Timestamp ttl);

  /// Routes each row to its shard group's primary and inserts per group.
  Status Insert(const std::string& table, const std::vector<Row>& rows);

  /// One logical query: fans out to every group that can hold matching
  /// rows (one group when both key bounds pin the same first key cell),
  /// merges the per-group streams in key order, applies the limit.
  Status Query(const std::string& table, const QueryBounds& bounds,
               QueryResult* result);

  /// Full result across continuations (§3.5), cluster-wide.
  Status QueryAll(const std::string& table, const QueryBounds& bounds,
                  std::vector<Row>* rows);

  /// Latest row under a key prefix. A non-empty prefix routes to exactly
  /// one group; an empty prefix asks every group and keeps the newest.
  Status LatestRow(const std::string& table, const Key& prefix, Row* row,
                   bool* found);

  /// Cached schema for `table`, fetched through the cluster when missing.
  Result<std::shared_ptr<const Schema>> TableSchema(const std::string& table);

 private:
  explicit ClusterClient(const ClusterClientOptions& options);

  Client* ClientFor(const Endpoint& ep);
  void DropClient(const Endpoint& ep);
  void Backoff(int attempt);
  static bool BodyHasCode(const std::string& body, wire::ErrCode code);

  /// One attempt of a routed request: sends the routed `body` (group id,
  /// map epoch, then the request's own bytes) on `client`.
  using Attempt =
      std::function<Status(Client* client, const std::string& body)>;

  /// The routed retry loop: sends `inner` to `group_id`'s primary through
  /// `attempt`, which leaves the answer's frame type in *rt and, for a
  /// kError, its body in *rb. A connection error or kWrongShard (and
  /// kServerBusy when `retry_busy`) backs off, refreshes the map and
  /// retries. On success *rt/*rb hold the answer — which may still be an
  /// application-level kError — and `*attempts_out` (optional) the number
  /// of send attempts that preceded it.
  Status Routed(uint32_t group_id, const std::string& inner, bool retry_busy,
                const Attempt& attempt, const wire::MsgType* rt,
                const std::string* rb, int* attempts_out = nullptr);

  /// One routed round trip (Client::Call) through Routed, retrying
  /// kServerBusy too.
  Status RoutedCall(uint32_t group_id, wire::MsgType op,
                    const std::string& inner, wire::MsgType* rt,
                    std::string* rb, int* attempts_out = nullptr);

  /// Query one group (kRoutedQuery + kQuery inner), decoding the chunk
  /// stream (Client::CallStream) through Routed.
  Status QueryGroup(uint32_t group_id, const std::string& table,
                    const QueryBounds& bounds, QueryResult* result);

  Result<std::shared_ptr<const Schema>> SchemaFor(const std::string& table);

  const ClusterClientOptions opts_;
  std::unique_ptr<Client> coord_;
  ShardMap map_;
  std::map<std::string, std::unique_ptr<Client>> clients_;  // By endpoint.
  std::map<std::string, std::shared_ptr<const Schema>> schema_cache_;
};

}  // namespace cluster
}  // namespace lt

#endif  // LITTLETABLE_CLUSTER_CLUSTER_CLIENT_H_
