// Client: the library applications link to talk to a LittleTable server —
// the role the paper's SQLite virtual-table adaptor plays (§3.1, §3.5).
//
// The client keeps one persistent TCP connection (disconnection is how it
// learns the server crashed, §3.1), caches each table's schema and sort
// order from the server, batches inserts, and paginates queries: when a
// result sets more-available, QueryAll updates the starting key bound to the
// last returned row's key and re-submits (§3.5). Requests encoded against a
// stale schema are transparently retried after a schema refresh.
//
// Thread safety: a Client serializes its requests internally; use one
// Client per concurrent stream (as the paper's one-process-per-grabber
// model does naturally).
//
// Fault tolerance: every socket operation carries a poll(2) deadline, so a
// hung server yields Status::DeadlineExceeded instead of blocking forever.
// On connection errors (peer gone, deadline expired, server draining) the
// client reconnects with capped exponential backoff + jitter and retries —
// but only idempotent requests (ping, queries, stats, schema fetches,
// flush-through). Inserts are NEVER blind-retried: a connection that died
// mid-insert leaves the outcome unknown, and the paper's §3.1 recovery
// story (clients re-read recent data from the device) owns that case.
#ifndef LITTLETABLE_NET_CLIENT_H_
#define LITTLETABLE_NET_CLIENT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/table.h"  // QueryResult
#include "net/transport.h"
#include "net/wire.h"
#include "util/clock.h"
#include "util/random.h"

namespace lt {

/// Deadlines and retry policy for a Client. Zero/negative timeouts block
/// forever (not recommended outside tests).
struct ClientOptions {
  int connect_timeout_ms = 5000;
  int read_timeout_ms = 30000;
  int write_timeout_ms = 30000;

  /// Reconnect-and-retry attempts after a connection error, for idempotent
  /// requests only (0 disables retries).
  int max_retries = 3;
  /// Exponential backoff between retries: initial delay, doubling per
  /// attempt, capped, with uniform jitter in [delay/2, delay].
  int backoff_initial_ms = 20;
  int backoff_max_ms = 1000;
  /// Seed for the jitter PRNG (deterministic for tests).
  uint64_t backoff_seed = 1;
  /// Overall budget for one logical request including every reconnect
  /// attempt and backoff sleep, measured on `clock` (0 = no budget, retry
  /// policy alone decides). Once the budget is exhausted no further retry
  /// is attempted and the last connection error is returned.
  int total_deadline_ms = 0;

  /// ConfigStore network id this client belongs to (0 = none). Sent as a
  /// kSetTenant binding after every connect and reconnect, so the server
  /// attributes the connection's queries to this tenant's quota across
  /// connection drops. A server too old to know the opcode answers with an
  /// error, which the client tolerates (no quotas there to attribute to).
  int64_t network_id = 0;

  /// Clock the total deadline is measured on; null = the system clock.
  /// Tests inject a SimClock and advance it from backoff_sleep.
  std::shared_ptr<Clock> clock;
  /// Called to sleep a backoff delay (milliseconds); null = a real
  /// std::this_thread sleep. The simulation harness injects a hook that
  /// advances SimClock instead, so retry storms cost no wall time.
  std::function<void(int64_t)> backoff_sleep;
  /// Transport to connect over; null means real TCP.
  net::Transport* transport = nullptr;
};

/// Quantile summary of one server-side latency histogram (microseconds).
struct HistogramQuantiles {
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;
};

/// Everything a kStatsV2 reply carries: a counter map plus the server's
/// (and optionally one table's) latency distributions.
struct ServerStats {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramQuantiles> histograms;
};

class Client {
 public:
  /// Connects to a LittleTable server with default options.
  static Status Connect(const std::string& host, uint16_t port,
                        std::unique_ptr<Client>* out);
  /// Connects with explicit deadlines and retry policy.
  static Status Connect(const std::string& host, uint16_t port,
                        const ClientOptions& options,
                        std::unique_ptr<Client>* out);

  Status Ping();

  /// Single-attempt health probe under one explicit deadline covering the
  /// whole call — connect (when disconnected) and round trip — with no
  /// retries and no backoff: the coordinator's prober decides liveness
  /// from this call alone, and retrying would mask exactly the slowness
  /// it is there to detect. Socket deadlines are restored afterwards, so
  /// other requests on this Client keep their configured timeouts.
  Status Ping(int deadline_ms);

  Status ListTables(std::vector<std::string>* names);

  /// Creates a table with the given TTL (0 = retain forever).
  Status CreateTable(const std::string& table, const Schema& schema,
                     Timestamp ttl);
  Status DropTable(const std::string& table);

  /// Fetches (and caches) a table's schema and TTL.
  Status GetTableInfo(const std::string& table, Schema* schema,
                      Timestamp* ttl);

  /// Returns the cached schema, fetching it if needed.
  Result<std::shared_ptr<const Schema>> TableSchema(const std::string& table);

  /// Inserts a batch. Rows whose ts cell equals wire::kOmittedTimestamp get
  /// server-assigned current time (§3.1).
  Status Insert(const std::string& table, const std::vector<Row>& rows);

  /// One server round trip; result.more_available signals truncation by the
  /// server's row limit.
  Status Query(const std::string& table, const QueryBounds& bounds,
               QueryResult* result);

  /// One page of a paginated scan: like Query, but when the server
  /// truncated (`result->more_available`) *bounds is advanced past the last
  /// returned row (§3.5's continuation), so calling again fetches the next
  /// page. Loop until result->more_available is false:
  ///
  ///   QueryBounds page = ...;
  ///   QueryResult result;
  ///   do {
  ///     LT_RETURN_IF_ERROR(client->QueryPage("t", &page, &result));
  ///     consume(result.rows);
  ///   } while (result.more_available);
  Status QueryPage(const std::string& table, QueryBounds* bounds,
                   QueryResult* result);

  /// Full result: re-submits continuation queries past each server limit.
  Status QueryAll(const std::string& table, const QueryBounds& bounds,
                  std::vector<Row>* rows);

  /// Latest row whose key starts with `prefix` (§3.4.5).
  Status LatestRow(const std::string& table, const Key& prefix, Row* row,
                   bool* found);

  /// Asks the server to flush all tablets holding rows at or before `ts`
  /// (§4.1.2 extension).
  Status FlushThrough(const std::string& table, Timestamp ts);

  Status AppendColumn(const std::string& table, const Column& column);
  Status WidenColumn(const std::string& table, const std::string& column);
  Status SetTtl(const std::string& table, Timestamp ttl);

  /// Fetches server counters and latency quantiles (kStatsV2): the shared
  /// block cache's "cache.*" counters and the "server.*" metrics, including
  /// per-opcode request latencies (server.op.*.micros); when `table` is
  /// non-empty, also its "table.*" counters and its insert/query/flush/
  /// merge/block-read distributions (table.*_micros).
  Status Stats(const std::string& table, ServerStats* stats);

  /// One request / one response frame, no retries: the building block the
  /// cluster layer is written against — its router owns retry and
  /// shard-map-refresh policy, so blind client-side retries would fight
  /// it. Serialized with every other request on this Client.
  Status Call(wire::MsgType type, const std::string& body,
              wire::MsgType* resp_type, std::string* resp_body);

  /// One request whose response is a stream of frames (e.g. a routed
  /// query's kQueryChunk sequence). `on_frame` runs once per frame and
  /// sets *done on the final one; returning an error aborts mid-stream
  /// and drops the connection (undrained frames leave it desynced).
  Status CallStream(wire::MsgType type, const std::string& body,
                    const std::function<Status(wire::MsgType type, Slice body,
                                               bool* done)>& on_frame);

  bool connected() const { return conn_ != nullptr; }

  /// Decodes a kError response body into its Status. Exposed for the
  /// cluster router, which interprets raw response frames from Call.
  static Status ErrorFromBody(Slice body);

  /// True for errors where reconnect + retry may help: the peer vanished,
  /// a deadline expired, or the server said busy/shutting down. Public for
  /// the cluster router's retry loop.
  static bool IsConnectionError(const Status& s);

  /// Decodes a kQueryChunk body whose rows are encoded under `schema`:
  /// returns its flags byte in `*flags` and appends its rows to `*rows`.
  /// Fails closed — Corruption for a malformed header, a row count larger
  /// than the body bytes, a truncated or out-of-range cell, or bytes past
  /// the last row (the complete rows before a bad one stay appended);
  /// Aborted when the chunk's schema version is not `schema`'s.
  static Status DecodeQueryChunk(Slice body, const Schema& schema,
                                 uint8_t* flags, std::vector<Row>* rows);

  /// Number of transport connects performed (1 for the initial connect;
  /// each reconnect adds one). Exposed for tests and monitoring.
  uint64_t connect_count() const {
    return connect_count_.load(std::memory_order_relaxed);
  }

 private:
  explicit Client(const ClientOptions& options);

  /// Opens the transport connection if it is not currently open.
  Status EnsureConnectedLocked();
  /// Binds opts_.network_id to a freshly opened connection (kSetTenant).
  /// Transport errors propagate; an error *reply* is tolerated (pre-tenant
  /// servers do not know the opcode).
  Status BindTenantLocked();
  /// Sleeps the backoff delay for the given (0-based) retry attempt.
  /// Called WITHOUT mu_ held: the sleep must not stall other threads'
  /// requests on this Client.
  void Backoff(int attempt);
  /// Runs request attempts of `fn`, reconnecting and retrying on
  /// connection errors per the retry policy. Only for idempotent requests.
  /// Acquires mu_ around each attempt (callers must NOT hold it) and
  /// releases it for the backoff sleep, so one caller's retry storm does
  /// not block every other thread sharing this Client.
  template <typename Fn>
  Status WithRetries(Fn&& fn);

  /// Sends one frame and reads one response frame; closes the connection
  /// on any transport error so the next request reconnects cleanly.
  Status RoundTrip(wire::MsgType type, const std::string& body,
                   wire::MsgType* resp_type, std::string* resp_body);
  /// RoundTrip for a frame the caller built (wire::StartFrame).
  Status RoundTripFrame(const std::string& frame, wire::MsgType* resp_type,
                        std::string* resp_body);
  Status ReadFrame(wire::MsgType* type, std::string* body);
  /// Drops the cached schema for `table` (on kSchemaChanged).
  void InvalidateSchema(const std::string& table);
  Result<std::shared_ptr<const Schema>> SchemaLocked(const std::string& table);
  Status PingLocked();
  Status QueryLocked(const std::string& table, const QueryBounds& bounds,
                     QueryResult* result);
  Status LatestRowLocked(const std::string& table, const Key& prefix,
                         Row* row, bool* found);

  std::mutex mu_;
  std::string host_;
  uint16_t port_ = 0;
  ClientOptions opts_;
  net::Transport* transport_;
  std::shared_ptr<Clock> retry_clock_;
  Random rng_;
  std::atomic<uint64_t> connect_count_{0};
  std::unique_ptr<net::Connection> conn_;
  std::map<std::string, std::shared_ptr<const Schema>> schema_cache_;
  // Insert's request frame, reused: each batch encodes into the capacity
  // the previous one left.
  std::string insert_frame_;
};

}  // namespace lt

#endif  // LITTLETABLE_NET_CLIENT_H_
