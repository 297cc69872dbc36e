#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/row_codec.h"
#include "util/coding.h"

namespace lt {

using wire::ErrCode;
using wire::MsgType;

namespace {

// Rows per kQueryChunk frame.
constexpr size_t kChunkRows = 512;

// Bytes one PumpConnection call will read before yielding back to the
// event loop, so a firehosing client cannot starve the other connections.
// Unconsumed bytes stay queued in the transport; the next Wait reports the
// connection ready again immediately.
constexpr size_t kMaxPumpBytes = 256 * 1024;

// Chunks one streaming-query slice emits before yielding the worker, so a
// big scan shares the pool with other connections' requests.
constexpr int kSliceChunks = 4;

// Rows a chunk may *scan* (not return) before the slice re-checks its
// kill switches — cancellation, deadline, quota. Bounds how stale those
// checks can get on a selective scan that matches almost nothing.
constexpr uint64_t kChunkScanCap = 16384;

// Queries whose client-requested row limit is at or below this skip the
// concurrent-scan slots; they still pay the tenant's query quota.
constexpr uint64_t kSmallQueryRowLimit = 512;

// Encoded-byte target for one kQueryChunk frame (chunks also cap at
// kChunkRows rows). Shrunk when the query byte budget is tight so the
// budget still fits several chunks.
constexpr size_t kChunkTargetBytes = 64 * 1024;

// The chunk byte target under query budget `budget` (0 = unbudgeted): a
// quarter of the budget, within [1 KB, kChunkTargetBytes].
size_t ChunkTarget(size_t budget) {
  return budget > 0
             ? std::min(kChunkTargetBytes, std::max<size_t>(1024, budget / 4))
             : kChunkTargetBytes;
}

// Whether a stream may build its next chunk with `pending` bytes not yet
// drained by the peer. Two chunk targets of headroom: the chunk about to
// be built may overshoot its target by one row, and the accounted peak
// (pending + frame) must stay within the budget, not one chunk past it. A
// scan with nothing pending always proceeds — with a budget smaller than
// two chunks, parking at zero pending would pause/resume forever without
// emitting a byte.
bool ChunkFits(size_t budget, size_t pending) {
  return budget == 0 || pending == 0 ||
         pending + 2 * ChunkTarget(budget) <= budget;
}

// Whether a stream parked on backpressure resumes: at the low-water mark
// (half the budget), and only where its next chunk fits — else, with a
// budget under four chunk targets, a stalled reader's stream would be
// resumed and re-parked on every event-loop tick.
bool ResumeParked(size_t budget, size_t pending) {
  return pending <= budget / 2 && ChunkFits(budget, pending);
}

// Room in front of a kQueryChunk's rows for its frame header: the length
// prefix, type and flags bytes, and the schema version and row count as
// varint32s.
constexpr size_t kChunkHeaderRoom = 4 + 1 + 1 + 5 + 5;

// When the flushed prefix of an outbound buffer exceeds this, compact.
constexpr size_t kOutbufCompactBytes = 1024 * 1024;

bool GetName(Slice* in, std::string* name) {
  Slice s;
  if (!GetLengthPrefixedSlice(in, &s)) return false;
  *name = s.ToString();
  return true;
}

// Metric-name suffix for each request opcode ("server.op.<name>.micros").
// Also the registry of known request opcodes: a frame whose (normalized)
// type byte has no name here is rejected with kBadRequest, never
// dispatched.
const char* OpName(MsgType type) {
  switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kListTables: return "list_tables";
    case MsgType::kGetTable: return "get_table";
    case MsgType::kCreateTable: return "create_table";
    case MsgType::kDropTable: return "drop_table";
    case MsgType::kInsert: return "insert";
    case MsgType::kQuery: return "query";
    case MsgType::kLatestRow: return "latest_row";
    case MsgType::kFlushThrough: return "flush_through";
    case MsgType::kAppendColumn: return "append_column";
    case MsgType::kWidenColumn: return "widen_column";
    case MsgType::kSetTtl: return "set_ttl";
    case MsgType::kStatsV2: return "stats_v2";
    case MsgType::kCancel: return "cancel";
    case MsgType::kSetTenant: return "set_tenant";
    case MsgType::kGetShardMap: return "get_shard_map";
    case MsgType::kAssignShard: return "assign_shard";
    case MsgType::kRoutedInsert: return "routed_insert";
    case MsgType::kRoutedQuery: return "routed_query";
    case MsgType::kRoutedCreate: return "routed_create";
    case MsgType::kReplicateRows: return "replicate_rows";
    case MsgType::kShipTablet: return "ship_tablet";
    case MsgType::kTabletSetSync: return "tablet_set_sync";
    default: return nullptr;
  }
}

// Opcodes handled by ServerOptions::extension rather than the core switch.
bool IsClusterOp(MsgType type) {
  switch (type) {
    case MsgType::kGetShardMap:
    case MsgType::kAssignShard:
    case MsgType::kRoutedInsert:
    case MsgType::kRoutedQuery:
    case MsgType::kRoutedCreate:
    case MsgType::kReplicateRows:
    case MsgType::kShipTablet:
    case MsgType::kTabletSetSync:
      return true;
    default:
      return false;
  }
}

}  // namespace

LittleTableServer::LittleTableServer(DB* db, uint16_t port)
    : LittleTableServer(db, [port] {
        ServerOptions o;
        o.port = port;
        return o;
      }()) {}

LittleTableServer::LittleTableServer(DB* db, const ServerOptions& options)
    : db_(db),
      opts_(options),
      idle_clock_(options.clock ? options.clock : SystemClock::Instance()),
      port_(options.port),
      transport_(options.transport ? options.transport
                                   : net::Transport::Tcp()) {
  // Resolve every instrument up front: the serve loop then records into
  // stable pointers with no registry lookups.
  for (int op = 0; op < 256; op++) {
    if (const char* name = OpName(static_cast<MsgType>(op))) {
      op_micros_[op] = metrics_.GetHistogram(std::string("server.op.") + name +
                                             ".micros");
    }
  }
  event_loop_lag_ = metrics_.GetHistogram("server.event_loop.lag_micros");
  run_queue_depth_ = metrics_.GetGauge("server.run_queue_depth");
  workers_busy_ = metrics_.GetGauge("server.workers_busy");
  worker_busy_micros_ = metrics_.GetCounter("server.worker_busy_micros");
  pending_frames_ = metrics_.GetGauge("server.pending_frames");
  connections_ = metrics_.GetCounter("server.connections");
  active_connections_ = metrics_.GetCounter("server.active_connections");
  requests_ = metrics_.GetCounter("server.requests");
  errors_ = metrics_.GetCounter("server.errors");
  idle_disconnects_ = metrics_.GetCounter("server.idle_disconnects");
  busy_rejects_ = metrics_.GetCounter("server.busy_rejects");
  shutdown_rejects_ = metrics_.GetCounter("server.shutdown_rejects");
  inline_pings_ = metrics_.GetCounter("server.inline_pings");
  query_shed_ = metrics_.GetCounter("server.query_shed");
  query_shed_quota_ = metrics_.GetCounter("server.query_shed.quota");
  query_shed_queue_full_ = metrics_.GetCounter("server.query_shed.queue_full");
  query_shed_wait_timeout_ =
      metrics_.GetCounter("server.query_shed.wait_timeout");
  query_deadline_exceeded_ =
      metrics_.GetCounter("server.query_deadline_exceeded");
  query_cancelled_ = metrics_.GetCounter("server.query_cancelled");
  stream_pauses_ = metrics_.GetCounter("server.stream_pauses");
  scans_active_ = metrics_.GetGauge("server.scans_active");
  scans_queued_ = metrics_.GetGauge("server.scans_queued");
  outbuf_bytes_ = metrics_.GetGauge("server.outbuf_bytes");
  queue_wait_micros_ = metrics_.GetHistogram("server.queue_wait_micros");
  stream_peak_bytes_ =
      metrics_.GetHistogram("server.query_stream_peak_bytes");
  admission_ =
      std::make_unique<AdmissionController>(opts_.admission, idle_clock_);
}

LittleTableServer::~LittleTableServer() { Stop(); }

Status LittleTableServer::Start() {
  LT_RETURN_IF_ERROR(transport_->Listen(port_, &listener_));
  port_ = listener_->port();
  LT_RETURN_IF_ERROR(transport_->NewPoller(&poller_));
  size_t n = opts_.worker_threads > 0 ? opts_.worker_threads : 1;
  workers_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LittleTableServer::Stop() {
  if (stop_called_.exchange(true)) return;
  // Phase 1 — drain: requests already received run to completion (the
  // response is written before the request is counted done); any frame
  // arriving meanwhile, including on brand-new connections, is answered
  // with kShuttingDown. Bounded by drain_timeout_ms.
  {
    // The flag is set under drain_mu_, and the event loop checks it and
    // registers each request in one drain_mu_ critical section — so every
    // request either observes draining_ and is rejected, or is already
    // counted in active_requests_ before the wait below reads it. Without
    // that pairing a request could slip between the check and the count
    // and have its connection shut down mid-dispatch.
    std::unique_lock<std::mutex> lock(drain_mu_);
    draining_.store(true);
    // A request counts as finished only once its response bytes left the
    // outbound buffer: the event loop keeps flushing during this phase.
    drain_cv_.wait_for(lock, std::chrono::milliseconds(opts_.drain_timeout_ms),
                       [this] {
                         return active_requests_ == 0 &&
                                unflushed_conns_.load() == 0;
                       });
  }
  // Phase 2 — stop: close the listener, stop the event loop, force
  // remaining connections shut, and join the worker pool.
  stopping_.store(true);
  // Closing the listener wakes a blocked Accept, which then returns non-OK
  // and ends the accept loop.
  if (listener_) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();  // Releases the port.
  if (poller_) poller_->Wakeup();
  if (event_thread_.joinable()) event_thread_.join();
  // The event loop is gone, so conns_ is safe to walk from this thread.
  // Workers may be mid-write on a stalled peer; Shutdown unblocks them
  // (Connection::Shutdown is safe concurrent with in-flight I/O).
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    workers_stop_ = true;
    run_queue_.clear();
    run_queue_depth_->Set(0);
  }
  sched_cv_.notify_all();
  for (auto& [id, cs] : conns_) cs->conn->Shutdown();
  {
    std::lock_guard<std::mutex> lock(accepted_mu_);
    for (auto& c : accepted_) c->Shutdown();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    slot_queue_.clear();
  }
  active_connections_->Add(-static_cast<int64_t>(conns_.size()));
  conns_.clear();  // Destroys the connections (closes them). Any live
                   // StreamState dies with its connection; QueryStream's
                   // destructor records its stats.
  {
    std::lock_guard<std::mutex> lock(accepted_mu_);
    accepted_.clear();
  }
  conn_count_.store(0);
  pending_frames_->Set(0);  // Any still-queued frames died with conns_.
  unflushed_conns_.store(0);
  outbuf_bytes_->Set(0);
  poller_.reset();
}

void LittleTableServer::AcceptLoop() {
  while (!stopping_.load()) {
    std::unique_ptr<net::Connection> conn;
    if (!listener_->Accept(&conn).ok()) break;
    if (stopping_.load()) break;
    if (opts_.max_connections > 0 &&
        conn_count_.load(std::memory_order_relaxed) >= opts_.max_connections) {
      // Over the cap: tell the client to back off, then close. Written
      // inline from the accept thread — no state is created for a rejected
      // connection. The write deadline is the I/O timeout: a
      // slow-but-healthy client still deserves the full reject frame.
      busy_rejects_->Increment();
      std::string reject;
      ReplyError(&reject, ErrCode::kServerBusy, "server busy: connection cap");
      conn->set_write_timeout_ms(opts_.io_timeout_ms);
      conn->WriteAll(reject.data(), reject.size());
      continue;
    }
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(accepted_mu_);
      accepted_.push_back(std::move(conn));
    }
    poller_->Wakeup();  // The event loop registers it.
  }
}

void LittleTableServer::EventLoop() {
  std::vector<uint64_t> ready;
  while (!stopping_.load()) {
    const Timestamp wait_start = MonotonicMicros();
    Status ws = poller_->Wait(opts_.poll_interval_ms, &ready);
    if (ws.ok() && ready.empty()) {
      // A pure timeout wakeup was *scheduled* for poll_interval_ms from
      // wait_start; anything beyond that is event-loop lag (kernel
      // scheduling delay, or the loop itself running behind). Early
      // returns (I/O ready, Wakeup) are on time by definition and clamp
      // to zero.
      const Timestamp scheduled =
          Timestamp{opts_.poll_interval_ms} * 1000;
      const Timestamp elapsed = MonotonicMicros() - wait_start;
      event_loop_lag_->Record(
          static_cast<uint64_t>(std::max<Timestamp>(0, elapsed - scheduled)));
    }
    if (stopping_.load()) break;
    if (!ws.ok()) {
      // Poll failures are transient (resource pressure); don't spin.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.poll_interval_ms));
      continue;
    }
    // Register connections handed off by the accept thread.
    std::deque<std::unique_ptr<net::Connection>> fresh;
    {
      std::lock_guard<std::mutex> lock(accepted_mu_);
      fresh.swap(accepted_);
    }
    for (std::unique_ptr<net::Connection>& c : fresh) {
      auto cs = std::make_shared<ConnState>();
      cs->id = next_conn_id_++;
      cs->conn = std::move(c);
      // Response writes get the I/O deadline so a stalled peer cannot pin
      // a worker forever. Reads are non-blocking (ReadSome) and need none.
      cs->conn->set_write_timeout_ms(opts_.io_timeout_ms);
      cs->last_activity = idle_clock_->Now();
      poller_->Add(cs->conn.get(), cs->id);
      conns_[cs->id] = cs;
      connections_->Increment();
      active_connections_->Add(1);
    }
    // Pump ready connections: read, reassemble frames, enqueue requests.
    for (uint64_t tag : ready) {
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;
      const std::shared_ptr<ConnState>& cs = it->second;
      {
        std::lock_guard<std::mutex> lock(sched_mu_);
        if (cs->dead) continue;
      }
      if (!PumpConnection(cs)) {
        bool resume = false;
        {
          std::lock_guard<std::mutex> lock(sched_mu_);
          cs->dead = true;
          // Connection-close cancellation: a peer that vanished mid-query
          // aborts the scan instead of letting it run to completion into
          // a buffer nobody will read. A parked stream is re-scheduled so
          // a worker finalizes it (returning its scan slot).
          if (cs->stream) {
            cs->stream->cancel.store(true);
            if (!cs->running) {
              ScheduleLocked(cs);
              resume = true;
            }
          }
        }
        if (resume) sched_cv_.notify_one();
        // Stop watching; queued responses still flush, then IdleTick (or
        // the finishing worker's wakeup) reaps the connection.
        poller_->Remove(cs->conn.get());
      }
    }
    FlushTick();
    IdleTick();
  }
}

bool LittleTableServer::PumpConnection(const std::shared_ptr<ConnState>& cs) {
  char buf[16384];
  size_t pumped = 0;
  while (pumped < kMaxPumpBytes) {
    size_t got = 0;
    if (!cs->conn->ReadSome(buf, sizeof(buf), &got).ok()) {
      return false;  // EOF or reset; any partial frame in inbuf is dropped.
    }
    if (got == 0) break;  // Drained for now.
    pumped += got;
    // Idle time is measured from the clock at the last received byte —
    // never inferred from poll-slice counts.
    cs->last_activity = idle_clock_->Now();
    cs->inbuf.append(buf, got);
    // Reassemble and hand off every complete frame.
    size_t off = 0;
    bool keep = true;
    while (cs->inbuf.size() - off >= 4) {
      uint32_t len = DecodeFixed32(cs->inbuf.data() + off);
      if (len == 0 || len > wire::kMaxFrameBytes) {
        keep = false;  // Unframeable garbage; drop the connection.
        break;
      }
      if (cs->inbuf.size() - off < 4 + static_cast<size_t>(len)) break;
      std::string payload = cs->inbuf.substr(off + 4, len);
      off += 4 + len;
      if (!HandleFrame(cs, std::move(payload))) {
        keep = false;
        break;
      }
    }
    if (off > 0) cs->inbuf.erase(0, off);
    if (!keep) return false;
  }
  return true;
}

bool LittleTableServer::HandleFrame(const std::shared_ptr<ConnState>& cs,
                                    std::string payload) {
  if (payload.empty()) return false;  // Unreachable: frames have len >= 1.
  // Normalize the opcode byte exactly once. payload[0] is a (possibly
  // signed) char: a frame byte >= 0x80 must become 128..255, not a
  // negative enum value.
  const uint8_t op = static_cast<uint8_t>(payload[0]);
  const bool known = OpName(static_cast<MsgType>(op)) != nullptr;

  Task task;
  bool draining;
  {
    // Reject-or-register, atomically with the drain flag: either this
    // request registers in active_requests_ before Stop() starts waiting
    // (so the drain waits for its response), or it observes draining_ and
    // is rejected — never a half-dispatched request whose connection the
    // "finished" drain shuts down.
    std::lock_guard<std::mutex> lock(drain_mu_);
    draining = draining_.load();
    if (!draining && known) {
      active_requests_++;
      task.registered = true;
    }
  }
  if (draining) {
    // Shutting down: this frame arrived after the drain began, so it is
    // rejected rather than served — the client should reconnect to a
    // healthy server. The reject rides the ordered response path (behind
    // any in-flight responses), then the connection closes.
    shutdown_rejects_->Increment();
    ReplyError(&task.canned, ErrCode::kShuttingDown, "server shutting down");
    EnqueueTask(cs, std::move(task));
    return false;
  }
  requests_->Increment();
  if (!known) {
    // Unknown opcode: answer with kBadRequest instead of dispatching. The
    // framing is intact, so the connection stays usable.
    char hex[8];
    snprintf(hex, sizeof(hex), "0x%02x", op);
    ReplyError(&task.canned, ErrCode::kBadRequest,
               std::string("unknown message type ") + hex);
    EnqueueTask(cs, std::move(task));
    return true;
  }
  if (op == static_cast<uint8_t>(MsgType::kPing)) {
    // Health probes are answered inline from the event loop when the
    // connection has no queued work: a saturated worker pool (or a deep
    // run queue) must not make a healthy node look dead to the
    // coordinator's prober. Writing from here is safe because the FIFO
    // invariant (one worker per connection, front task only) means
    // !running && tasks.empty() ⇒ no worker can be writing to this
    // connection — and the outbound buffer must be empty too, or the
    // inline write would land mid-frame. Pings arriving behind pipelined
    // work still ride the ordered task path so responses stay in order.
    bool idle;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      idle = !cs->running && cs->tasks.empty();
    }
    if (idle) {
      bool wrote_inline = false;
      bool write_ok = true;
      {
        std::lock_guard<std::mutex> lock(cs->out_mu);
        if (cs->out_off == cs->outbuf.size() && !cs->write_failed) {
          // Blocking WriteAll under out_mu is safe here: no tasks ⇒ no
          // worker can contend for this connection's buffer, and every
          // other out_mu user runs on this (the event loop) thread.
          const Timestamp start = MonotonicMicros();
          const std::string resp = wire::Frame(MsgType::kOk, "");
          write_ok = cs->conn->WriteAll(resp.data(), resp.size()).ok();
          if (!write_ok) cs->write_failed = true;
          inline_pings_->Increment();
          if (LatencyHistogram* h = op_micros_[op]) {
            h->Record(static_cast<uint64_t>(MonotonicMicros() - start));
          }
          wrote_inline = true;
        }
      }
      if (wrote_inline) {
        if (task.registered) {
          {
            std::lock_guard<std::mutex> lock(drain_mu_);
            active_requests_--;
          }
          drain_cv_.notify_all();
        }
        return write_ok;
      }
    }
  }
  if (op == static_cast<uint8_t>(MsgType::kCancel)) {
    // Cancellation is out-of-band: it takes effect at decode time, not
    // behind the pipeline — aborting a stream the pipeline is stuck
    // behind is the whole point. A parked stream (admission queue or
    // backpressure) is re-scheduled so a worker slice finalizes it.
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (cs->stream) {
        cs->stream->cancel.store(true);
        if (!cs->running) {
          ScheduleLocked(cs);
          resume = true;
        }
      }
    }
    if (resume) sched_cv_.notify_one();
    // The acknowledgment rides the ordered response path, so it follows
    // the cancelled query's terminal frame. With no query in flight the
    // cancel is a no-op kOk.
    task.canned = wire::Frame(MsgType::kOk, "");
    EnqueueTask(cs, std::move(task));
    return true;
  }
  task.payload = std::move(payload);
  EnqueueTask(cs, std::move(task));
  return true;
}

void LittleTableServer::ScheduleLocked(const std::shared_ptr<ConnState>& cs) {
  // Invariant: a connection appears in run_queue_ at most once
  // (queued_run), and only when it has work and no worker on it. Parked
  // streams make spurious schedules possible (a resume racing a cancel);
  // the slice re-checks its state and re-parks, so they are harmless.
  if (cs->queued_run || cs->running || cs->tasks.empty() || workers_stop_) {
    return;
  }
  run_queue_.push_back(cs);
  cs->queued_run = true;
  run_queue_depth_->Set(static_cast<int64_t>(run_queue_.size()));
}

void LittleTableServer::EnqueueTask(const std::shared_ptr<ConnState>& cs,
                                    Task task) {
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    cs->tasks.push_back(std::move(task));
    pending_frames_->Increment();
    // Only the empty→nonempty transition schedules: a deeper queue means
    // the front task is running, queued, or parked (a parked stream must
    // not be resumed by unrelated frames arriving behind it).
    if (cs->tasks.size() == 1) {
      ScheduleLocked(cs);
      schedule = cs->queued_run;
    }
  }
  if (schedule) sched_cv_.notify_one();
}

void LittleTableServer::IdleTick() {
  const Timestamp now = idle_clock_->Now();
  bool notify_sched = false;
  // Shed slot waiters whose queue-wait deadline passed: each parked
  // connection is re-scheduled and a worker slice answers it kServerBusy —
  // an explicit reply, never a silent drop. Entries joined the queue in
  // clock order, so the expired ones are a prefix.
  if (opts_.admission.queue_wait_timeout_ms > 0) {
    const Timestamp wait =
        Timestamp{opts_.admission.queue_wait_timeout_ms} * 1000;
    std::lock_guard<std::mutex> lock(sched_mu_);
    const size_t queued = slot_queue_.size();
    while (!slot_queue_.empty() &&
           now - slot_queue_.front()->stream->queued_at >= wait) {
      std::shared_ptr<ConnState> cs = std::move(slot_queue_.front());
      slot_queue_.pop_front();
      cs->stream->slot = Slot::kExpired;
      cs->stream->queue_wait_micros = now - cs->stream->queued_at;
      ScheduleLocked(cs);
      notify_sched = true;
    }
    if (slot_queue_.size() != queued) UpdateScanGaugesLocked();
  }
  for (auto it = conns_.begin(); it != conns_.end();) {
    const std::shared_ptr<ConnState>& cs = it->second;
    bool reap = false;
    bool stalled = false;
    bool flushed;
    {
      std::lock_guard<std::mutex> lock(cs->out_mu);
      const size_t pending = cs->outbuf.size() - cs->out_off;
      if (pending > 0 && !cs->write_failed && opts_.io_timeout_ms > 0 &&
          now - cs->last_out_progress >=
              Timestamp{opts_.io_timeout_ms} * 1000) {
        // The peer took no response bytes for a full I/O timeout: give up
        // on the connection rather than hold its buffered responses (and
        // any parked stream's slot) forever.
        cs->write_failed = true;
        cs->outbuf.clear();
        cs->out_off = 0;
        if (cs->out_counted) {
          cs->out_counted = false;
          unflushed_conns_.fetch_sub(1);
        }
        stalled = true;
      }
      flushed = cs->write_failed || cs->outbuf.size() == cs->out_off;
    }
    if (stalled && draining_.load()) drain_cv_.notify_all();
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (stalled) cs->dead = true;
      // A dead connection with a stream still attached: make sure a
      // worker finalizes it (returning its scan slot) — the cancel
      // may have been set after the stream parked.
      if (cs->dead && cs->stream && !cs->running) {
        cs->stream->cancel.store(true);
        ScheduleLocked(cs);
        notify_sched = true;
      }
      const bool busy = cs->running || !cs->tasks.empty();
      if (cs->dead) {
        // Tasks done and responses flushed (or unflushable): safe to
        // destroy.
        reap = !busy && flushed;
      } else if (opts_.idle_timeout_ms > 0 && !busy &&
                 now - cs->last_activity >=
                     Timestamp{opts_.idle_timeout_ms} * 1000) {
        idle_disconnects_->Increment();
        cs->dead = true;
        reap = flushed;
      }
    }
    if (reap) {
      poller_->Remove(cs->conn.get());
      active_connections_->Add(-1);
      conn_count_.fetch_sub(1, std::memory_order_relaxed);
      it = conns_.erase(it);  // Last owner (bar a worker) closes the conn.
    } else {
      ++it;
    }
  }
  if (notify_sched) sched_cv_.notify_all();
}

void LittleTableServer::TryFlushLocked(ConnState* cs) {
  while (cs->out_off < cs->outbuf.size()) {
    size_t wrote = 0;
    Status s = cs->conn->WriteSome(cs->outbuf.data() + cs->out_off,
                                   cs->outbuf.size() - cs->out_off, &wrote);
    if (!s.ok()) {
      cs->write_failed = true;
      cs->outbuf.clear();
      cs->out_off = 0;
      break;
    }
    if (wrote == 0) break;  // Transport full; poll for writability.
    cs->out_off += wrote;
    cs->last_out_progress = idle_clock_->Now();
  }
  if (cs->out_off == cs->outbuf.size()) {
    cs->outbuf.clear();
    cs->out_off = 0;
  } else if (cs->out_off > kOutbufCompactBytes) {
    cs->outbuf.erase(0, cs->out_off);
    cs->out_off = 0;
  }
  if (cs->outbuf.empty() && cs->out_counted) {
    cs->out_counted = false;
    unflushed_conns_.fetch_sub(1);
  }
}

void LittleTableServer::AppendOutput(const std::shared_ptr<ConnState>& cs,
                                     const Slice& data) {
  if (data.empty()) return;
  bool leftover;
  {
    std::lock_guard<std::mutex> lock(cs->out_mu);
    if (cs->write_failed) return;  // The peer will never see it anyway.
    if (cs->outbuf.empty()) cs->last_out_progress = idle_clock_->Now();
    cs->outbuf.append(data.data(), data.size());
    if (!cs->out_counted) {
      cs->out_counted = true;
      unflushed_conns_.fetch_add(1);
    }
    // Opportunistic flush: on a draining peer the whole response usually
    // leaves here and the event loop never gets involved.
    TryFlushLocked(cs.get());
    leftover = !cs->write_failed && cs->out_off < cs->outbuf.size();
  }
  if (leftover) {
    // The event loop arms write interest and finishes the flush.
    if (!stopping_.load()) poller_->Wakeup();
  } else if (draining_.load()) {
    drain_cv_.notify_all();
  }
}

void LittleTableServer::FlushTick() {
  int64_t total_unflushed = 0;
  bool notify_sched = false;
  for (auto& [id, cs] : conns_) {
    size_t pending;
    bool failed;
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(cs->out_mu);
      const bool had = cs->out_off < cs->outbuf.size();
      if (had && !cs->write_failed) {
        TryFlushLocked(cs.get());
        drained = had && cs->outbuf.empty();
      }
      pending = cs->outbuf.size() - cs->out_off;
      failed = cs->write_failed;
      total_unflushed += static_cast<int64_t>(pending);
    }
    const bool want = pending > 0 && !failed;
    if (want != cs->want_write) {
      poller_->SetWritable(cs->conn.get(), want);
      cs->want_write = want;
    }
    if (drained && draining_.load()) drain_cv_.notify_all();
    // Resume a stream parked on backpressure once its next chunk fits
    // below the low-water mark (ResumeParked) — or unconditionally on
    // write failure/cancel so the worker can finalize it.
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (cs->stream && cs->stream->paused && !cs->running) {
        if (failed || ResumeParked(opts_.query_budget_bytes, pending) ||
            cs->stream->cancel.load()) {
          cs->stream->paused = false;
          ScheduleLocked(cs);
          notify_sched = true;
        }
      }
    }
  }
  outbuf_bytes_->Set(total_unflushed);
  if (notify_sched) sched_cv_.notify_all();
}

void LittleTableServer::UpdateScanGaugesLocked() {
  scans_active_->Set(static_cast<int64_t>(scans_held_));
  scans_queued_->Set(static_cast<int64_t>(slot_queue_.size()));
}

bool LittleTableServer::ReleaseSlotLocked() {
  // FIFO: a waiter means every slot was taken, so the freed one goes to
  // the longest waiter.
  bool granted = false;
  if (slot_queue_.empty()) {
    scans_held_--;
  } else {
    std::shared_ptr<ConnState> next = std::move(slot_queue_.front());
    slot_queue_.pop_front();
    StreamState* w = next->stream.get();
    w->slot = Slot::kHeld;
    w->queue_wait_micros =
        std::max<Timestamp>(0, idle_clock_->Now() - w->queued_at);
    ScheduleLocked(next);
    granted = true;
  }
  UpdateScanGaugesLocked();
  return granted;
}

LittleTableServer::SliceResult LittleTableServer::ExecuteQuerySlice(
    const std::shared_ptr<ConnState>& cs, Task& task) {
  // The request's own opcode histogram: kQuery, or kRoutedQuery.
  LatencyHistogram* const op_micros =
      op_micros_[static_cast<uint8_t>(task.payload[0])];
  auto error_frame = [&](ErrCode code, const std::string& msg) {
    std::string out;
    ReplyError(&out, code, msg);
    return out;
  };
  StreamState* st;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    st = cs->stream.get();
  }
  // The pointer is stable unlocked: stream state is installed and torn
  // down only by slices of this connection's front task, and at most one
  // worker runs that at a time.
  if (st == nullptr) {
    // First slice: parse the request, then pass admission.
    const Timestamp op_start = MonotonicMicros();
    auto reply = [&](const std::string& out) {
      AppendOutput(cs, out);
      if (op_micros != nullptr) {
        op_micros->Record(static_cast<uint64_t>(MonotonicMicros() - op_start));
      }
      return SliceResult::kDone;
    };
    Slice body(task.payload.data() + 1, task.payload.size() - 1);
    if (task.payload[0] == static_cast<char>(MsgType::kRoutedQuery)) {
      // The cluster extension checks the routed header once, here, and
      // answers anything but an inner kQuery itself.
      std::string out;
      if (!opts_.extension(MsgType::kRoutedQuery, &body, &out)) {
        return reply(out);
      }
    }
    std::string name;
    if (!GetName(&body, &name)) {
      return reply(error_frame(ErrCode::kInvalidArgument, "bad request"));
    }
    std::shared_ptr<Table> table = db_->GetTable(name);
    if (!table) {
      return reply(error_frame(ErrCode::kNotFound, "no such table: " + name));
    }
    std::shared_ptr<const Schema> schema = table->schema();
    uint32_t version = 0;
    QueryBounds bounds;
    if (!GetVarint32(&body, &version) || version != schema->version() ||
        !wire::DecodeBounds(&body, *schema, &bounds).ok()) {
      return reply(error_frame(ErrCode::kSchemaChanged,
                               "schema changed or bad bounds"));
    }
    // Slot exemption is judged on the limit the CLIENT asked for, before
    // the table's row cap (TableOptions::server_row_limit) clamps it: a
    // bounded point lookup should not queue behind firehose scans, but an
    // "everything" request is a scan no matter how the cap truncates it.
    const bool slot_exempt =
        bounds.limit > 0 && bounds.limit <= kSmallQueryRowLimit;
    auto stream = std::make_unique<StreamState>();
    stream->table = std::move(table);
    stream->bounds = bounds;
    stream->tenant = cs->tenant;
    stream->op_start = op_start;
    const Timestamp now = idle_clock_->Now();
    if (opts_.query_deadline_ms > 0) {
      stream->deadline = now + Timestamp{opts_.query_deadline_ms} * 1000;
    }
    // Every query pays its tenant's query bucket first, a queue-full shed
    // included.
    if (!admission_->ChargeQuery(cs->tenant)) {
      query_shed_->Increment();
      query_shed_quota_->Increment();
      return reply(error_frame(ErrCode::kResourceExhausted,
                               "tenant quota exceeded"));
    }
    bool queue_full = false;
    Slot slot = Slot::kNone;
    {
      // Take a slot, or join the queue and park, in one sched_mu_ step: a
      // slot released on another worker grants the queue head under the
      // same lock, so it always finds this stream parked.
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (!slot_exempt) {
        const size_t max = opts_.admission.max_concurrent_scans;
        if (max == 0 || scans_held_ < max) {
          stream->slot = Slot::kHeld;
          scans_held_++;
        } else if (slot_queue_.size() < opts_.admission.max_queued_scans) {
          stream->slot = Slot::kQueued;
          stream->queued_at = now;
          slot_queue_.push_back(cs);
        } else {
          queue_full = true;
        }
        UpdateScanGaugesLocked();
      }
      if (!queue_full) {
        st = stream.get();
        slot = st->slot;
        cs->stream = std::move(stream);
      }
    }
    if (queue_full) {
      query_shed_->Increment();
      query_shed_queue_full_->Increment();
      return reply(error_frame(ErrCode::kResourceExhausted,
                               "admission queue full"));
    }
    // Queued: a grant or the wait's expiry resumes us.
    if (slot == Slot::kQueued) return SliceResult::kParked;
  }

  // Tear-down common to every way a stream ends: record, append the
  // terminal frame (empty when silence is the answer — dead peer),
  // return a held slot, detach. Stats are recorded BEFORE the terminal
  // frame is appended: once the client can observe the response, the
  // table's query counters and the server's stream histograms must
  // already reflect it (the deterministic chaos sampler depends on that
  // ordering).
  auto finalize = [&](const Slice& terminal) {
    if (st->qs) st->qs->Finish();
    if (st->queue_wait_micros >= 0) {
      queue_wait_micros_->Record(static_cast<uint64_t>(st->queue_wait_micros));
    }
    if (st->peak_bytes > 0) {
      stream_peak_bytes_->Record(static_cast<uint64_t>(st->peak_bytes));
    }
    const Timestamp micros = MonotonicMicros() - st->op_start;
    if (op_micros != nullptr) op_micros->Record(static_cast<uint64_t>(micros));
    if (!terminal.empty()) AppendOutput(cs, terminal);
    bool granted = false;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (st->slot == Slot::kHeld) granted = ReleaseSlotLocked();
      cs->stream.reset();
    }
    if (granted) sched_cv_.notify_all();
    return SliceResult::kDone;
  };
  const bool cancelled = st->cancel.load();
  bool wfail;
  {
    std::lock_guard<std::mutex> lock(cs->out_mu);
    wfail = cs->write_failed;
  }
  Slot slot;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    st->paused = false;  // If we were parked on backpressure, no longer.
    if (st->slot == Slot::kQueued && (cancelled || wfail)) {
      // Leave the queue in the same step that reads the state: a grant or
      // an expiry either already moved the stream out of kQueued, or it
      // will not find it in the queue.
      slot_queue_.erase(
          std::find(slot_queue_.begin(), slot_queue_.end(), cs));
      st->slot = Slot::kNone;
      UpdateScanGaugesLocked();
    }
    slot = st->slot;
  }
  if (wfail) {
    // Peer unreachable: nothing to say, just unwind.
    return finalize("");
  }
  if (slot == Slot::kExpired) {
    query_shed_->Increment();
    query_shed_wait_timeout_->Increment();
    return finalize(error_frame(ErrCode::kServerBusy,
                                "timed out waiting for a scan slot"));
  }
  if (cancelled) {
    query_cancelled_->Increment();
    return finalize(error_frame(ErrCode::kCancelled, "query cancelled"));
  }
  // Spurious resume; keep waiting.
  if (slot == Slot::kQueued) return SliceResult::kParked;

  // Admitted: open the stream lazily so queued scans pin no tablet
  // snapshot while waiting.
  if (st->qs == nullptr) {
    Status s = st->table->NewQueryStream(st->bounds, &st->qs);
    if (!s.ok()) {
      std::string out;
      ReplyStatus(&out, s);
      return finalize(out);
    }
  }
  const size_t budget = opts_.query_budget_bytes;
  const size_t chunk_target = ChunkTarget(budget);
  for (int chunk_i = 0; chunk_i < kSliceChunks; chunk_i++) {
    // Kill switches, re-checked between chunks inside the scan loop.
    if (st->cancel.load()) {
      query_cancelled_->Increment();
      return finalize(error_frame(ErrCode::kCancelled, "query cancelled"));
    }
    {
      std::lock_guard<std::mutex> lock(cs->out_mu);
      wfail = cs->write_failed;
    }
    if (wfail) return finalize("");
    if (st->deadline > 0 && idle_clock_->Now() >= st->deadline) {
      query_deadline_exceeded_->Increment();
      query_shed_->Increment();
      return finalize(error_frame(ErrCode::kResourceExhausted,
                                  "query deadline exceeded"));
    }
    // Backpressure: never build a chunk the budget cannot hold on top of
    // what the peer has not drained. Park — costing no worker thread —
    // and let FlushTick resume us at the low-water mark.
    size_t out_pending;
    {
      std::lock_guard<std::mutex> lock(cs->out_mu);
      out_pending = cs->outbuf.size() - cs->out_off;
    }
    if (!ChunkFits(budget, out_pending)) {
      stream_pauses_->Increment();
      {
        std::lock_guard<std::mutex> lock(sched_mu_);
        st->paused = true;
      }
      // Poke the event loop so write interest is armed promptly.
      if (!stopping_.load()) poller_->Wakeup();
      return SliceResult::kParked;
    }
    // Pull one chunk's rows straight into its frame, after room for the
    // header, which is written in front of the rows once their count is
    // known.
    std::string& frame = st->frame;
    frame.assign(kChunkHeaderRoom, '\0');
    uint32_t n = 0;
    bool final = false;
    Status s = st->qs->NextChunk(kChunkRows, chunk_target, kChunkScanCap,
                                 &frame, &n, &final);
    // Bill the newly scanned rows to the tenant's row bucket; a scan that
    // outran its tenant's budget is shed mid-stream.
    const uint64_t scanned_total = st->qs->rows_scanned();
    const uint64_t delta = scanned_total - st->charged_rows;
    st->charged_rows = scanned_total;
    if (delta > 0 && !admission_->ChargeScannedRows(st->tenant, delta)) {
      query_shed_->Increment();
      query_shed_quota_->Increment();
      return finalize(error_frame(ErrCode::kResourceExhausted,
                                  "scanned-rows quota exceeded"));
    }
    if (!s.ok()) {
      std::string out;
      ReplyStatus(&out, s);
      return finalize(out);
    }
    if (n > 0 || final) {
      uint8_t flags = 0;
      if (final) {
        flags |= wire::kChunkFinal;
        if (st->qs->more_available()) flags |= wire::kChunkMoreAvailable;
      }
      // The rows are encoded under the stream's own schema snapshot, which
      // a schema change while the scan was queued makes newer than the
      // request's; the client rejects a version it does not hold.
      char header[kChunkHeaderRoom];
      char* p = header + 4;  // The length prefix goes in last.
      *p++ = static_cast<char>(MsgType::kQueryChunk);
      *p++ = static_cast<char>(flags);
      p = EncodeVarint64(p, st->qs->schema()->version());
      p = EncodeVarint64(p, n);
      const size_t start = kChunkHeaderRoom - (p - header);
      EncodeFixed32(header, static_cast<uint32_t>(frame.size() - start - 4));
      memcpy(frame.data() + start, header, p - header);
      const Slice chunk(frame.data() + start, frame.size() - start);
      // Accounted memory this query pins at its worst moment: undrained
      // earlier chunks plus the frame about to be appended. Measured
      // before the flush so the number is budget-vs-gate, not peer speed.
      st->peak_bytes = std::max(st->peak_bytes, out_pending + chunk.size());
      // The final chunk rides through finalize so table stats land before
      // the client can observe the end of the stream.
      if (final) return finalize(chunk);
      AppendOutput(cs, chunk);
    }
  }
  return SliceResult::kYield;  // Share the pool with other connections.
}

void LittleTableServer::WorkerLoop() {
  while (true) {
    std::shared_ptr<ConnState> cs;
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      sched_cv_.wait(lock,
                     [this] { return workers_stop_ || !run_queue_.empty(); });
      if (workers_stop_) return;
      cs = std::move(run_queue_.front());
      run_queue_.pop_front();
      run_queue_depth_->Set(static_cast<int64_t>(run_queue_.size()));
      cs->queued_run = false;
      if (cs->tasks.empty()) continue;  // Spurious resume; nothing to run.
      cs->running = true;
      workers_busy_->Increment();
    }
    const Timestamp busy_start = MonotonicMicros();
    // Only this worker touches the front task while running is set, and
    // the event loop only push_backs (which never invalidates deque
    // references), so the reference is stable without the lock.
    Task& task = cs->tasks.front();
    SliceResult sr = SliceResult::kDone;
    if (!task.canned.empty()) {
      AppendOutput(cs, task.canned);
    } else {
      const uint8_t op = static_cast<uint8_t>(task.payload[0]);
      const bool query = op == static_cast<uint8_t>(MsgType::kQuery) ||
                         (op == static_cast<uint8_t>(MsgType::kRoutedQuery) &&
                          opts_.extension);
      if (query && db_ != nullptr) {
        // Queries stream, direct or routed: executed in bounded slices
        // under the scan slots, tenant quotas and the per-query byte budget
        // instead of materializing the whole result.
        sr = ExecuteQuerySlice(cs, task);
      } else if (op == static_cast<uint8_t>(MsgType::kSetTenant)) {
        // Binds the connection to a tenant (ConfigStore network id) for
        // quota accounting. Handled here rather than in Dispatch because
        // it addresses the connection, not the database.
        Slice body(task.payload.data() + 1, task.payload.size() - 1);
        const Timestamp start = MonotonicMicros();
        uint64_t network_id = 0;
        std::string out;
        if (!GetVarint64(&body, &network_id)) {
          ReplyError(&out, ErrCode::kInvalidArgument, "bad request");
        } else {
          cs->tenant = static_cast<int64_t>(network_id);
          out = wire::Frame(MsgType::kOk, "");
        }
        if (LatencyHistogram* h = op_micros_[op]) {
          h->Record(static_cast<uint64_t>(MonotonicMicros() - start));
        }
        AppendOutput(cs, out);
      } else {
        Slice body(task.payload.data() + 1, task.payload.size() - 1);
        std::string response;
        const Timestamp start = MonotonicMicros();
        Dispatch(static_cast<MsgType>(op), body, &response);
        if (LatencyHistogram* h = op_micros_[op]) {
          h->Record(static_cast<uint64_t>(MonotonicMicros() - start));
        }
        AppendOutput(cs, response);
      }
    }
    // Responses leave through the outbound buffer (AppendOutput), so a
    // stalled peer parks bytes, never this worker. The drain still waits
    // for the client to be able to read its answer: unflushed_conns_
    // stays nonzero until the buffer empties.
    bool write_ok;
    {
      std::lock_guard<std::mutex> lock(cs->out_mu);
      write_ok = !cs->write_failed;
    }
    const bool was_registered = sr == SliceResult::kDone && task.registered;
    int dropped_registered = 0;
    bool conn_finished = false;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (sr == SliceResult::kDone) {
        cs->tasks.pop_front();
        pending_frames_->Decrement();
      }
      cs->running = false;
      workers_busy_->Decrement();
      if (!write_ok && sr == SliceResult::kDone) {
        // The peer can't receive responses; abandon the rest of the
        // pipeline but give the drain back their registrations. (A
        // streaming slice that saw the failure has already finalized, so
        // no stream state is dropped here.)
        cs->dead = true;
        for (const Task& t : cs->tasks) {
          if (t.registered) dropped_registered++;
        }
        pending_frames_->Add(-static_cast<int64_t>(cs->tasks.size()));
        cs->tasks.clear();
      }
      // kDone with tasks left, or kYield (stream wants the CPU back):
      // re-enter the run queue. kParked waits for its resume event, unless
      // that came while this worker still held the connection: a grant,
      // an expiry or a cancel does not schedule a running connection.
      const StreamState* st = cs->stream.get();
      if (sr != SliceResult::kParked || st->cancel.load() ||
          !(st->slot == Slot::kQueued || st->paused)) {
        ScheduleLocked(cs);
        if (cs->queued_run) sched_cv_.notify_one();
      }
      conn_finished = cs->dead && cs->tasks.empty();
    }
    worker_busy_micros_->Add(
        static_cast<int64_t>(MonotonicMicros() - busy_start));
    if (was_registered || dropped_registered > 0) {
      {
        std::lock_guard<std::mutex> lock(drain_mu_);
        active_requests_ -= (was_registered ? 1 : 0) + dropped_registered;
      }
      drain_cv_.notify_all();
    }
    // A dead connection with a drained pipeline is ready to reap; poke the
    // event loop rather than waiting out its poll slice.
    if (conn_finished && !stopping_.load()) poller_->Wakeup();
  }
}

void LittleTableServer::ReplyError(std::string* out, ErrCode code,
                                   const std::string& message) {
  errors_->Increment();
  std::string body;
  body.push_back(static_cast<char>(code));
  PutLengthPrefixedSlice(&body, message);
  *out += wire::Frame(MsgType::kError, body);
}

void LittleTableServer::ReplyStatus(std::string* out, const Status& s) {
  if (s.ok()) {
    *out += wire::Frame(MsgType::kOk, "");
  } else {
    ReplyError(out, wire::CodeForStatus(s), s.message());
  }
}

Status LittleTableServer::CollectCounters(
    const std::string& name,
    std::vector<std::pair<std::string, uint64_t>>* out) {
  if (db_ != nullptr) {
    if (const std::shared_ptr<Cache>& cache = db_->block_cache()) {
      Cache::Stats cs = cache->GetStats();
      out->emplace_back("cache.hits", cs.hits);
      out->emplace_back("cache.misses", cs.misses);
      out->emplace_back("cache.inserts", cs.inserts);
      out->emplace_back("cache.evictions", cs.evictions);
      out->emplace_back("cache.charge_bytes", cs.charge);
      out->emplace_back("cache.capacity_bytes", cs.capacity);
    }
  }
  if (!name.empty()) {
    if (db_ == nullptr) return Status::NotFound("no such table: " + name);
    std::shared_ptr<Table> table = db_->GetTable(name);
    if (!table) return Status::NotFound("no such table: " + name);
    // The canonical export list lives with the counters themselves
    // (TableStats::ForEachCounter), so a counter added there shows up here,
    // in kStatsV2, in Prometheus text, and in the metrics sampler at once.
    table->stats().ForEachCounter([&](const char* key, uint64_t v) {
      out->emplace_back(key, v);
    });
  }
  return Status::OK();
}

void LittleTableServer::Dispatch(MsgType type, Slice body, std::string* out) {
  if (IsClusterOp(type)) {
    // Cluster opcodes belong to the extension (coordinator or replica
    // agent); the core server knows only that they exist, so that they get
    // latency histograms and pass the known-opcode gate.
    if (opts_.extension) {
      opts_.extension(type, &body, out);
    } else {
      ReplyError(out, ErrCode::kBadRequest,
                 "cluster opcode not supported here");
    }
    return;
  }
  if (db_ == nullptr && type != MsgType::kPing && type != MsgType::kStatsV2) {
    // Pure-extension server (the coordinator): health checks and
    // server-wide stats work, everything table- or db-shaped does not.
    return ReplyError(out, ErrCode::kInvalidArgument,
                      "server has no database attached");
  }
  switch (type) {
    case MsgType::kPing:
      *out += wire::Frame(MsgType::kOk, "");
      return;

    case MsgType::kListTables: {
      std::string resp;
      std::vector<std::string> names = db_->ListTables();
      PutVarint32(&resp, static_cast<uint32_t>(names.size()));
      for (const std::string& n : names) PutLengthPrefixedSlice(&resp, n);
      *out += wire::Frame(MsgType::kTableList, resp);
      return;
    }

    case MsgType::kGetTable: {
      std::string name;
      if (!GetName(&body, &name)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      std::shared_ptr<Table> table = db_->GetTable(name);
      if (!table) {
        return ReplyError(out, ErrCode::kNotFound, "no such table: " + name);
      }
      std::string resp;
      table->schema()->EncodeTo(&resp);
      PutVarint64(&resp, static_cast<uint64_t>(table->ttl()));
      *out += wire::Frame(MsgType::kTableInfo, resp);
      return;
    }

    case MsgType::kCreateTable: {
      std::string name;
      Schema schema;
      uint64_t ttl;
      if (!GetName(&body, &name) ||
          !Schema::DecodeFrom(&body, &schema).ok() ||
          !GetVarint64(&body, &ttl)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      TableOptions opts = db_->options().table_defaults;
      opts.ttl = static_cast<Timestamp>(ttl);
      return ReplyStatus(out, db_->CreateTable(name, schema, &opts));
    }

    case MsgType::kDropTable: {
      std::string name;
      if (!GetName(&body, &name)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      return ReplyStatus(out, db_->DropTable(name));
    }

    // Handled here rather than with the table-addressed requests below
    // because an empty name is legal: it asks for server-wide counters
    // without any table's.
    case MsgType::kStatsV2: {
      std::string name;
      if (!GetName(&body, &name)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      std::vector<std::pair<std::string, uint64_t>> entries;
      Status s = CollectCounters(name, &entries);
      if (!s.ok()) return ReplyStatus(out, s);
      for (const auto& [key, value] : metrics_.CounterValues()) {
        entries.emplace_back(key, static_cast<uint64_t>(value));
      }
      // Gauges ride the counter entries: same (name, value) shape on the
      // wire, so pre-gauge clients parse the reply unchanged.
      for (const auto& [key, value] : metrics_.GaugeValues()) {
        entries.emplace_back(key, static_cast<uint64_t>(value));
      }

      // Histograms: the server's per-opcode distributions, plus the
      // table's operation latencies when a table was named. Never-recorded
      // histograms are omitted so the reply stays proportional to actual
      // traffic.
      std::vector<std::pair<std::string, HistogramSnapshot>> hists;
      for (auto& [key, snap] : metrics_.HistogramSnapshots()) {
        if (snap.count > 0) hists.emplace_back(key, std::move(snap));
      }
      if (!name.empty()) {
        std::shared_ptr<Table> table = db_->GetTable(name);
        if (!table) {
          return ReplyError(out, ErrCode::kNotFound, "no such table: " + name);
        }
        table->stats().ForEachHistogram(
            [&](const char* key, const LatencyHistogram& h) {
              HistogramSnapshot snap = h.Snapshot();
              if (snap.count > 0) hists.emplace_back(key, std::move(snap));
            });
      }

      std::string resp;
      PutVarint32(&resp, static_cast<uint32_t>(entries.size()));
      for (const auto& [key, value] : entries) {
        PutLengthPrefixedSlice(&resp, key);
        PutVarint64(&resp, value);
      }
      PutVarint32(&resp, static_cast<uint32_t>(hists.size()));
      for (const auto& [key, snap] : hists) {
        PutLengthPrefixedSlice(&resp, key);
        PutVarint64(&resp, snap.count);
        PutVarint64(&resp, snap.P50());
        PutVarint64(&resp, snap.P90());
        PutVarint64(&resp, snap.P99());
        PutVarint64(&resp, snap.P999());
        PutVarint64(&resp, snap.max);
      }
      *out += wire::Frame(MsgType::kStatsV2Result, resp);
      return;
    }

    default:
      break;
  }

  // All remaining requests address a table and carry its name first.
  std::string name;
  if (!GetName(&body, &name)) {
    return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
  }
  std::shared_ptr<Table> table = db_->GetTable(name);
  if (!table) {
    return ReplyError(out, ErrCode::kNotFound, "no such table: " + name);
  }
  // Requests encoded against a schema check its version (§3.5 evolutions
  // can land between a client's schema fetch and its next request).
  std::shared_ptr<const Schema> schema = table->schema();

  switch (type) {
    case MsgType::kInsert: {
      uint32_t version;
      if (!GetVarint32(&body, &version)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      if (version != schema->version()) {
        return ReplyError(out, ErrCode::kSchemaChanged, "schema changed");
      }
      uint32_t count;
      if (!GetVarint32(&body, &count) || count > 10u * 1000 * 1000) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad row count");
      }
      // Rows stay in their wire encoding, which is the table's. A client
      // may omit a row's timestamp entirely, in which case the server sets
      // it to the current time (§3.1): only such rows, and rows whose cells
      // are well-formed but not canonically encoded, are decoded and
      // re-encoded.
      EncodedRows rows;
      rows.Clear(schema->version());
      rows.bytes.reserve(body.size());
      rows.ends.reserve(count);
      std::vector<KeyCell> key(schema->num_key_columns());
      const size_t ts_index = schema->ts_index();
      const Timestamp now = db_->clock()->Now();
      for (uint32_t i = 0; i < count; i++) {
        const Slice start = body;
        if (ParseRow(&body, *schema, key.data()).ok() &&
            key[ts_index].i != wire::kOmittedTimestamp) {
          rows.AddEncoded(Slice(start.data(), body.data() - start.data()));
          continue;
        }
        body = start;
        Row row;
        if (!DecodeRow(&body, *schema, &row).ok()) {
          return ReplyError(out, ErrCode::kInvalidArgument, "bad row");
        }
        if (row[ts_index].AsInt() == wire::kOmittedTimestamp) {
          row[ts_index] = Value::Ts(now);
        }
        rows.Add(*schema, row);
      }
      // Concurrent inserts from other connections' workers group-commit
      // inside InsertEncoded (one critical section, statuses fanned out).
      return ReplyStatus(out, table->InsertEncoded(rows));
    }

    case MsgType::kLatestRow: {
      uint32_t version;
      Key prefix;
      if (!GetVarint32(&body, &version) || version != schema->version() ||
          !wire::DecodeKeyPrefix(&body, *schema, &prefix).ok()) {
        return ReplyError(out, ErrCode::kSchemaChanged,
                          "schema changed or bad prefix");
      }
      Row row;
      bool found = false;
      Status s = table->LatestRowForPrefix(prefix, &row, &found);
      if (!s.ok()) return ReplyStatus(out, s);
      std::string resp;
      resp.push_back(found ? 1 : 0);
      PutVarint32(&resp, schema->version());
      if (found) EncodeRow(&resp, *schema, row);
      *out += wire::Frame(MsgType::kRowResult, resp);
      return;
    }

    case MsgType::kFlushThrough: {
      uint64_t zz_ts;
      if (!GetVarint64(&body, &zz_ts)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      return ReplyStatus(out, table->FlushThrough(ZigZagDecode(zz_ts)));
    }

    case MsgType::kAppendColumn: {
      // Column encoded as a length-prefixed name + type byte + default.
      Slice cname;
      if (!GetLengthPrefixedSlice(&body, &cname) || body.empty()) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      uint8_t type_byte = static_cast<uint8_t>(body[0]);
      body.remove_prefix(1);
      if (type_byte < 1 || type_byte > 6) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad column type");
      }
      Column column;
      column.name = cname.ToString();
      column.type = static_cast<ColumnType>(type_byte);
      if (!DecodeValue(&body, column.type, &column.default_value).ok()) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad default");
      }
      return ReplyStatus(out, table->AppendColumn(column));
    }

    case MsgType::kWidenColumn: {
      std::string cname;
      if (!GetName(&body, &cname)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      return ReplyStatus(out, table->WidenColumn(cname));
    }

    case MsgType::kSetTtl: {
      uint64_t ttl;
      if (!GetVarint64(&body, &ttl)) {
        return ReplyError(out, ErrCode::kInvalidArgument, "bad request");
      }
      return ReplyStatus(out, table->SetTtl(static_cast<Timestamp>(ttl)));
    }

    default:
      // Unreachable: unknown opcodes are rejected at decode with
      // kBadRequest, before Dispatch.
      return ReplyError(out, ErrCode::kBadRequest, "unknown message type");
  }
}

}  // namespace lt
