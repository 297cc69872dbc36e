// LittleTableServer: runs a DB as an independent server process reachable
// over TCP (§3.1), built around an event loop.
//
// Threading model: one accept thread (blocking Accept, inline kServerBusy
// rejects past the connection cap), one event-loop thread that owns a
// Poller over every live connection and does all frame reassembly, and a
// fixed pool of worker threads that execute decoded requests. A connection
// may have many requests in flight (pipelining); per connection, requests
// execute one at a time in arrival order and responses are written back in
// that order, so pipelined clients keep read-your-writes semantics.
// Cross-connection requests run in parallel on the pool — which is what
// feeds the Table-level group-commit insert coalescing.
//
// Inserts are acknowledged as soon as rows land in in-memory tablets — the
// server deliberately provides no way to learn whether data reached stable
// storage (§3.1); the FlushThrough command (§4.1.2) is the one explicit
// durability hook. Query responses stream in chunks so the client can
// surface rows before the scan completes; the final chunk carries the
// more-available flag for §3.5 continuation queries.
#ifndef LITTLETABLE_NET_SERVER_H_
#define LITTLETABLE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/db.h"
#include "net/admission.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace lt {

/// Robustness knobs for the server's connection handling.
struct ServerOptions {
  /// Port to bind (0 = ephemeral).
  uint16_t port = 0;
  /// Transport to listen on; null means real TCP. The simulation harness
  /// injects a sim::SimTransport here to run the server with no real
  /// sockets.
  net::Transport* transport = nullptr;
  /// Maximum simultaneous client connections; further connects receive a
  /// kServerBusy error frame and are closed (0 = unlimited).
  size_t max_connections = 256;
  /// Disconnect a client after this long with no request (0 = never).
  int idle_timeout_ms = 0;
  /// How long Stop() waits for in-flight requests to finish before
  /// force-closing connections.
  int drain_timeout_ms = 5000;
  /// Granularity of the event loop's housekeeping tick (idle-timeout
  /// checks, closed-connection reaping) when no I/O is ready.
  int poll_interval_ms = 50;
  /// Deadline for response writes; guards against stalled peers pinning
  /// worker threads (0 = no deadline).
  int io_timeout_ms = 30000;
  /// Request-execution threads. Decoded requests from all connections are
  /// executed by this fixed pool — connection count does not add threads.
  size_t worker_threads = 4;
  /// Clock for idle-timeout accounting (elapsed time between requests on a
  /// connection). Null = the real system clock; tests over SimTransport can
  /// inject the SimClock so idleness is simulated time.
  std::shared_ptr<Clock> clock;
  /// Cluster extension: invoked (from a worker thread) for the cluster
  /// opcodes (kGetShardMap..kTabletSetSync), appending response frames to
  /// `*out` exactly as Dispatch does and returning false — or, on a server
  /// with a DB, for a kRoutedQuery holding a kQuery, narrowing `*body` to
  /// that kQuery's body and returning true: the worker then streams it as
  /// a direct kQuery. A server without one answers those opcodes with
  /// kBadRequest. Installed by the coordinator and replica agents.
  std::function<bool(wire::MsgType type, Slice* body, std::string* out)>
      extension;

  // --- Overload resilience -----------------------------------------------

  /// Per-query streaming byte budget: the most encoded-but-unacknowledged
  /// response data one query may pin (the chunk being built plus the
  /// connection's unflushed outbound buffer). A scan that fills the budget
  /// parks — costing no worker thread — and resumes when the client drains
  /// below half of it, so a slow reader holds bounded server memory.
  /// 0 = unbounded (a slow reader buffers the whole result).
  size_t query_budget_bytes = 4 * 1024 * 1024;
  /// Wall-clock deadline for one query, checked between chunks inside the
  /// scan loop; an over-deadline scan is shed mid-stream with
  /// kResourceExhausted. Measured on `clock`. 0 = none.
  int query_deadline_ms = 0;
  /// Concurrent-scan slots, FIFO wait queue (both kept by the server), and
  /// per-tenant token-bucket quotas (keyed by the ConfigStore network id
  /// bound with kSetTenant).
  AdmissionOptions admission;
};

class LittleTableServer {
 public:
  /// Serves `db` (not owned) on 127.0.0.1:`port` (0 = ephemeral) with
  /// default options. `db` may be null for a pure-extension server (the
  /// cluster coordinator): kPing, kStatsV2 with an empty table name,
  /// and extension opcodes still work; everything else answers kError.
  LittleTableServer(DB* db, uint16_t port = 0);
  LittleTableServer(DB* db, const ServerOptions& options);
  ~LittleTableServer();

  /// Binds, listens, and starts the accept thread, event loop, and worker
  /// pool.
  Status Start();

  /// Graceful drain, then stop: in-flight requests get up to
  /// drain_timeout_ms to finish (frames arriving meanwhile are answered
  /// with kShuttingDown), after which the listener closes, remaining
  /// connections are shut down, and all threads are joined.
  void Stop();

  uint16_t port() const { return port_; }

  /// Live connections currently tracked by the event loop (including those
  /// handed off by accept but not yet registered). Converges to the number
  /// of open clients: the event loop reaps closed connections on its idle
  /// tick, so an idle server does not accumulate dead entries.
  size_t ConnectionCount() const {
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// Server-level metrics: per-opcode request latency histograms
  /// (server.op.<name>.micros) and connection/request/error counters
  /// (server.*). Exposed for kStatsV2 and for in-process embedding.
  MetricsRegistry& metrics() { return metrics_; }

  /// Executes one request synchronously on the caller's thread, appending
  /// response frames to `*out`. This is the cluster delegation hook: a
  /// replica agent's extension hands a routed request's inner opcode back
  /// to the core dispatch — any but kQuery, which it hands back to the
  /// worker to stream (ServerOptions::extension) — and the promotion path
  /// replays redo-buffered inserts through it.
  void Handle(wire::MsgType type, Slice body, std::string* out) {
    Dispatch(type, body, out);
  }

 private:
  // One request decoded from a connection's byte stream, or a canned
  // (precomputed) response that must still flow through the per-connection
  // FIFO so pipelined responses stay in order.
  struct Task {
    std::string payload;   // Frame payload (type byte + body); empty if canned.
    std::string canned;    // Prebuilt response frames (shutdown/bad-opcode).
    bool registered = false;  // Counted in active_requests_ for the drain.
  };

  // Where a stream stands with the scan slots (DESIGN.md §10). Every
  // transition happens under sched_mu_, together with the slot count and
  // the wait queue it changes.
  enum class Slot : uint8_t {
    kNone,     // Holds no slot and waits for none: a small (limit-bounded)
               // query, or a waiter that left the queue on a cancel.
    kQueued,   // Parked in slot_queue_.
    kHeld,     // Holds a slot; finalize returns it to the queue head.
    kExpired,  // Left the queue at its wait deadline; shed on next slice.
  };

  // State of one in-flight streaming kQuery. Installed on the connection
  // by the first worker slice and torn down by the finalizing slice; the
  // pointer itself is guarded by sched_mu_, the scan internals are owned
  // by whichever worker is slicing (at most one: the stream task is the
  // connection's FIFO front for its whole lifetime).
  struct StreamState {
    std::shared_ptr<Table> table;
    QueryBounds bounds;
    // Opened lazily on the first admitted slice, so queued scans pin no
    // tablet snapshot while they wait.
    std::unique_ptr<QueryStream> qs;
    int64_t tenant = 0;
    // --- Guarded by sched_mu_. ---
    Slot slot = Slot::kNone;
    Timestamp queued_at = 0;  // Idle-clock reading when it joined the queue.
    bool paused = false;      // Parked on outbound-buffer backpressure.
    // Set by the event loop (kCancel frame, connection death); checked
    // between chunks by the slicing worker.
    std::atomic<bool> cancel{false};
    int64_t queue_wait_micros = -1;  // Set on grant/expiry, -1 = never queued.
    Timestamp deadline = 0;          // Idle-clock deadline; 0 = none.
    Timestamp op_start = 0;          // MonotonicMicros at first slice.
    uint64_t charged_rows = 0;       // Scanned rows already billed to quota.
    size_t peak_bytes = 0;           // Max outbound bytes pinned at once.
    std::string frame;  // The chunk being built, reused across chunks.
  };

  // Per-connection state. The event loop owns conn I/O state (inbuf,
  // last_activity, poller registration); the scheduling fields are guarded
  // by sched_mu_; the outbound buffer by out_mu (a leaf lock — never held
  // while acquiring sched_mu_ or drain_mu_). Held by shared_ptr: the
  // conns_ map keeps one reference, an executing worker another, so the
  // connection object outlives any in-flight response write.
  struct ConnState {
    uint64_t id = 0;
    std::unique_ptr<net::Connection> conn;
    std::string inbuf;            // Reassembly buffer (event loop only).
    Timestamp last_activity = 0;  // Idle clock reading (event loop only).
    // Tenant (ConfigStore network id) bound with kSetTenant. Only touched
    // while executing this connection's front task, which is serialized,
    // so no lock is needed.
    int64_t tenant = 0;
    // --- Outbound buffer, guarded by out_mu. Workers append response
    // frames and flush what the transport accepts without blocking; the
    // event loop flushes the rest as the peer drains. FIFO, so pipelined
    // responses keep request order.
    std::mutex out_mu;
    std::string outbuf;
    size_t out_off = 0;            // Flushed prefix of outbuf.
    bool write_failed = false;     // Transport write error or write stall.
    bool out_counted = false;      // Counted in unflushed_conns_.
    Timestamp last_out_progress = 0;  // Idle clock at last accepted byte.
    // Whether the poller is armed for writability (event loop only).
    bool want_write = false;
    // --- Guarded by sched_mu_. ---
    std::deque<Task> tasks;   // Decoded, not yet completed; front may run.
    bool running = false;     // A worker is executing this conn's front task.
    bool queued_run = false;  // Present in run_queue_.
    bool dead = false;        // No more reads; close once tasks drain.
    std::unique_ptr<StreamState> stream;  // In-flight streaming query.
  };

  // What one worker slice of a task decided: the task completed (pop it),
  // wants the CPU back soon (re-enqueue behind other connections), or
  // parked waiting for an external event — an admission grant or the
  // outbound buffer draining — that will re-schedule the connection.
  enum class SliceResult { kDone, kYield, kParked };

  void AcceptLoop();
  void EventLoop();
  void WorkerLoop();

  /// Reads whatever is available on `cs`, reassembles complete frames, and
  /// enqueues tasks. Returns false when the connection is finished (EOF,
  /// error, oversized frame) and should be marked dead.
  bool PumpConnection(const std::shared_ptr<ConnState>& cs);
  /// Handles one complete frame payload: drain check, opcode
  /// normalization, task enqueue. Returns false to kill the connection.
  bool HandleFrame(const std::shared_ptr<ConnState>& cs, std::string payload);
  /// Enqueues `task` on `cs` and schedules the connection on the worker
  /// run queue if no worker is already serving it.
  void EnqueueTask(const std::shared_ptr<ConnState>& cs, Task task);
  /// Pushes `cs` onto the worker run queue unless it is already there, a
  /// worker is serving it, or it has nothing to run. sched_mu_ must be
  /// held; the caller notifies sched_cv_ after unlocking.
  void ScheduleLocked(const std::shared_ptr<ConnState>& cs);
  /// Event-loop housekeeping: idle-timeout disconnects, queue-wait expiry,
  /// write-stall detection, and reaping of dead connections whose tasks
  /// and output have drained.
  void IdleTick();
  /// Event-loop outbound pass: flushes each connection's buffered output,
  /// arms/disarms poller write interest, and resumes streams parked on
  /// backpressure once their buffer drains below the low-water mark.
  void FlushTick();

  /// Appends response bytes to `cs`'s outbound buffer and flushes what the
  /// transport will take without blocking. Never blocks a worker on a slow
  /// peer; leftover bytes are flushed by the event loop as the peer drains.
  void AppendOutput(const std::shared_ptr<ConnState>& cs, const Slice& data);
  /// Flushes as much buffered output as the transport accepts (out_mu
  /// held). Sets write_failed and drops the buffer on a transport error.
  void TryFlushLocked(ConnState* cs);

  /// Executes one slice of a streaming kQuery, direct or handed back by
  /// the cluster extension from a kRoutedQuery: admission on first entry,
  /// then up to a few chunks of rows — checking cancellation, the query
  /// deadline, the tenant's scanned-rows quota, and the outbound byte
  /// budget between chunks.
  SliceResult ExecuteQuerySlice(const std::shared_ptr<ConnState>& cs,
                                Task& task);
  /// Returns a held scan slot and grants it to the head of the wait queue,
  /// if any. sched_mu_ must be held; true means a waiter was scheduled and
  /// the caller notifies sched_cv_ after unlocking.
  bool ReleaseSlotLocked();
  /// Publishes the slot count and queue length. sched_mu_ must be held.
  void UpdateScanGaugesLocked();

  /// Handles one request; appends response frames to `*out`.
  void Dispatch(wire::MsgType type, Slice body, std::string* out);

  void ReplyError(std::string* out, wire::ErrCode code,
                  const std::string& message);
  void ReplyStatus(std::string* out, const Status& s);

  /// Collects the kStatsV2 counter entries (shared block cache, plus
  /// `name`'s table counters when non-empty). Returns NotFound for an
  /// unknown table.
  Status CollectCounters(const std::string& name,
                         std::vector<std::pair<std::string, uint64_t>>* out);

  DB* const db_;
  const ServerOptions opts_;
  const std::shared_ptr<Clock> idle_clock_;
  MetricsRegistry metrics_;
  // Per-opcode request-latency histograms, resolved once at construction
  // so the serve loop records without touching the registry lock. Indexed
  // by the request's MsgType byte; null for unused opcodes.
  LatencyHistogram* op_micros_[256] = {};
  // Event-loop health: how late the loop wakes relative to its scheduled
  // poll slice (scheduled-vs-actual wakeup; a saturated or preempted loop
  // shows here before anything times out).
  LatencyHistogram* event_loop_lag_ = nullptr;
  // Instantaneous depth of the worker run queue and number of busy
  // workers: together they say whether the pool is the bottleneck.
  Gauge* run_queue_depth_ = nullptr;
  Gauge* workers_busy_ = nullptr;
  // Cumulative microseconds workers spent executing requests (divide by
  // worker count and wall time for pool utilization).
  Counter* worker_busy_micros_ = nullptr;
  // Decoded-but-not-completed frames across all connections (pipelining
  // backlog).
  Gauge* pending_frames_ = nullptr;
  Counter* connections_ = nullptr;
  Counter* active_connections_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* idle_disconnects_ = nullptr;
  Counter* busy_rejects_ = nullptr;
  Counter* shutdown_rejects_ = nullptr;
  // Pings answered directly from the event loop (connection had no queued
  // work), bypassing the worker pool so a saturated pool cannot fail a
  // healthy node's health probe.
  Counter* inline_pings_ = nullptr;
  // Overload-resilience instruments. Sheds are always explicit error
  // replies; these count why.
  Counter* query_shed_ = nullptr;              // Total sheds, any cause.
  Counter* query_shed_quota_ = nullptr;        // Tenant token bucket dry.
  Counter* query_shed_queue_full_ = nullptr;   // Admission queue at cap.
  Counter* query_shed_wait_timeout_ = nullptr; // Queue-wait deadline hit.
  Counter* query_deadline_exceeded_ = nullptr;
  Counter* query_cancelled_ = nullptr;
  Counter* stream_pauses_ = nullptr;  // Scans parked on backpressure.
  Gauge* scans_active_ = nullptr;
  Gauge* scans_queued_ = nullptr;
  Gauge* outbuf_bytes_ = nullptr;  // Unflushed response bytes, all conns.
  LatencyHistogram* queue_wait_micros_ = nullptr;
  // Peak outbound bytes one streaming query pinned — the accounted-memory
  // check against query_budget_bytes.
  LatencyHistogram* stream_peak_bytes_ = nullptr;
  uint16_t port_;
  net::Transport* const transport_;
  std::unique_ptr<net::Listener> listener_;
  std::unique_ptr<net::Poller> poller_;
  // Shutdown is two-phase: draining_ (answer new frames with
  // kShuttingDown, let in-flight requests finish) then stopping_ (close
  // everything). stop_called_ makes Stop() idempotent.
  std::atomic<bool> stop_called_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int active_requests_ = 0;  // guarded by drain_mu_
  // Connections holding unflushed response bytes. The drain waits for
  // this to reach zero as well: a request is not "finished" until the
  // client can actually read its answer.
  std::atomic<int> unflushed_conns_{0};

  std::unique_ptr<AdmissionController> admission_;

  std::thread accept_thread_;
  std::thread event_thread_;
  std::vector<std::thread> workers_;

  // Accepted connections waiting for the event loop to register them.
  std::mutex accepted_mu_;
  std::deque<std::unique_ptr<net::Connection>> accepted_;

  // Connections registered with the poller; event-loop thread only.
  std::map<uint64_t, std::shared_ptr<ConnState>> conns_;
  uint64_t next_conn_id_ = 1;
  std::atomic<size_t> conn_count_{0};  // conns_ plus the accepted_ handoff.

  // Worker scheduling: connections with a runnable front task. A
  // connection appears at most once (running=false ∧ !tasks.empty() ⇒
  // queued), which is what serializes its tasks and keeps responses in
  // order.
  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  std::deque<std::shared_ptr<ConnState>> run_queue_;
  bool workers_stop_ = false;  // guarded by sched_mu_
  // Scan slots: how many streams hold one, and the FIFO of connections
  // whose stream is parked waiting for one (Slot::kQueued, in queue order).
  // A worker releasing a slot, the event loop expiring a wait and a cancel
  // all act on these in one sched_mu_ step. Guarded by sched_mu_.
  size_t scans_held_ = 0;
  std::deque<std::shared_ptr<ConnState>> slot_queue_;
};

}  // namespace lt

#endif  // LITTLETABLE_NET_SERVER_H_
