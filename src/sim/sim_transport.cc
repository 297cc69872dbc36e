#include "sim/sim_transport.h"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

namespace lt {
namespace sim {

namespace {
std::string Where(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}
}  // namespace

// One direction of a connection. Bytes travel as chunks stamped with the
// SimClock time they become readable.
struct HalfPipe {
  struct Chunk {
    std::string data;
    Timestamp deliver_at = 0;
  };
  std::deque<Chunk> chunks;
  size_t offset = 0;    // Consumed prefix of chunks.front().
  size_t pending = 0;   // Unread bytes across chunks (offset excluded).
  bool closed = false;  // Writer closed: EOF once chunks drain.

  bool empty() const { return chunks.empty(); }
};

struct Pipe {
  HalfPipe to_server;  // Written by the connecting (client) end.
  HalfPipe to_client;
  bool reset = false;  // RST: both ends error once deliverable data drains.
  bool client_gone = false;
  bool server_gone = false;
  // Which simulated machines own each end ("" = the anonymous base node);
  // per-link partitions and node crashes match on these.
  std::string client_node;
  std::string server_node;
};

// All transport state shares one mutex + condition variable: the simulated
// network is small (a handful of connections) and a single monitor keeps
// every wake-up path trivially correct.
struct SimTransport::Inner {
  std::mutex mu;
  std::condition_variable cv;
  std::shared_ptr<SimClock> clock;
  bool auto_advance = true;
  size_t conn_buffer_bytes = 0;  // WriteSome cap per direction; 0 = none.

  struct ListenerState {
    uint16_t port = 0;
    std::string node;  // Machine the listener is bound on.
    std::deque<std::shared_ptr<Pipe>> backlog;
    bool closed = false;
  };
  std::map<uint16_t, std::shared_ptr<ListenerState>> listeners;
  uint16_t next_ephemeral = 40000;
  std::vector<std::weak_ptr<Pipe>> pipes;

  // Fault state.
  int fail_next_connects = 0;
  bool partitioned = false;
  bool truncate_armed = false;
  size_t truncate_keep = 0;
  Timestamp delay_next_write = 0;
  int reorder_next_accepts = 0;
  // Severed node pairs, normalized (smaller name first).
  std::set<std::pair<std::string, std::string>> severed_links;

  SimTransportStats stats;

  bool LinkDownLocked(const std::string& a, const std::string& b) const {
    if (severed_links.empty() || a == b) return false;
    return severed_links.count(a < b ? std::make_pair(a, b)
                                     : std::make_pair(b, a)) > 0;
  }

  /// Severs `pipe`. Counts only connections whose client end is still open:
  /// a pipe whose client already closed lingers until the server's event
  /// loop drops its end, which depends on server-thread timing, not on the
  /// schedule.
  void ResetLocked(Pipe* pipe) {
    if (pipe->reset) return;
    pipe->reset = true;
    if (!pipe->client_gone) stats.resets_injected++;
  }

  /// Moves the clock to `t` if it is behind (callers hold mu, so leaps are
  /// serialized and deterministic).
  void LeapTo(Timestamp t) {
    Timestamp now = clock->Now();
    if (t > now) clock->Advance(t - now);
  }
};

namespace {

class SimConnection final : public net::Connection {
 public:
  SimConnection(std::shared_ptr<SimTransport::Inner> inner,
                std::shared_ptr<Pipe> pipe, bool is_server)
      : inner_(std::move(inner)), pipe_(std::move(pipe)),
        is_server_(is_server) {}

  ~SimConnection() override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    ShutdownLocked();
  }

  void set_read_timeout_ms(int ms) override { read_timeout_ms_ = ms; }
  void set_write_timeout_ms(int ms) override { write_timeout_ms_ = ms; }

  Status WaitReadable(int timeout_ms, bool* ready) override {
    *ready = false;
    std::unique_lock<std::mutex> lock(inner_->mu);
    const auto deadline = timeout_ms >= 0
                              ? std::chrono::steady_clock::now() +
                                    std::chrono::milliseconds(timeout_ms)
                              : std::chrono::steady_clock::time_point::max();
    while (true) {
      if (shut_) return Status::NetworkError("connection shut down");
      HalfPipe& in = incoming();
      if (!in.empty()) {
        Timestamp at = in.chunks.front().deliver_at;
        if (at <= inner_->clock->Now()) {
          *ready = true;
          return Status::OK();
        }
        if (inner_->auto_advance) {
          inner_->LeapTo(at);
          inner_->cv.notify_all();
          *ready = true;
          return Status::OK();
        }
      } else if (pipe_->reset || in.closed) {
        // The next read reports the reset/EOF; poll(2) flags these ready.
        *ready = true;
        return Status::OK();
      }
      if (timeout_ms >= 0) {
        if (inner_->cv.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          return Status::OK();  // *ready stays false.
        }
      } else {
        inner_->cv.wait(lock);
      }
    }
  }

  Status WriteAll(const char* data, size_t n) override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    if (shut_) return Status::NetworkError("connection shut down");
    if (pipe_->reset) {
      return Status::NetworkError("connection reset by peer");
    }
    if (peer_gone()) {
      // TCP semantics: the first write after the peer's close is accepted
      // locally (the bytes go nowhere; the peer answers with a reset);
      // only writes after that reset fail. This matters for inline reject
      // frames — a client that races a ping write against the server's
      // reject-and-close must still be able to read the buffered reject.
      if (pipe_->reset) return Status::NetworkError("broken pipe");
      pipe_->reset = true;
      inner_->stats.bytes_blackholed += n;
      inner_->cv.notify_all();
      return Status::OK();
    }
    if (inner_->partitioned ||
        inner_->LinkDownLocked(pipe_->client_node, pipe_->server_node)) {
      // A partition silently eats the bytes; like TCP buffering, the
      // writer cannot tell. The reader's deadline discovers the loss.
      inner_->stats.bytes_blackholed += n;
      return Status::OK();
    }
    Timestamp at = inner_->clock->Now();
    if (inner_->delay_next_write > 0) {
      at += inner_->delay_next_write;
      inner_->delay_next_write = 0;
      inner_->stats.writes_delayed++;
    }
    HalfPipe& out = outgoing();
    if (is_server_ && inner_->truncate_armed) {
      inner_->truncate_armed = false;
      inner_->stats.writes_truncated++;
      size_t keep = std::min(inner_->truncate_keep, n);
      if (keep > 0) {
        out.chunks.push_back({std::string(data, keep), at});
        out.pending += keep;
      }
      pipe_->reset = true;  // The connection dies after the partial frame.
      inner_->cv.notify_all();
      return Status::OK();  // The writer believes the write succeeded.
    }
    out.chunks.push_back({std::string(data, n), at});
    out.pending += n;
    inner_->cv.notify_all();
    return Status::OK();
  }

  Status WriteSome(const char* data, size_t n, size_t* written) override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    *written = 0;
    if (shut_) return Status::NetworkError("connection shut down");
    if (pipe_->reset) return Status::NetworkError("connection reset by peer");
    if (peer_gone()) {
      // Same TCP first-write-after-close semantics as WriteAll: accepted
      // locally, answered with a reset.
      pipe_->reset = true;
      inner_->stats.bytes_blackholed += n;
      inner_->cv.notify_all();
      *written = n;
      return Status::OK();
    }
    if (inner_->partitioned ||
        inner_->LinkDownLocked(pipe_->client_node, pipe_->server_node)) {
      // The partition eats the bytes; the writer cannot tell (so no
      // backpressure either — exactly like bytes vanishing past the NIC).
      inner_->stats.bytes_blackholed += n;
      *written = n;
      return Status::OK();
    }
    HalfPipe& out = outgoing();
    size_t take = n;
    if (inner_->conn_buffer_bytes > 0) {
      if (out.pending >= inner_->conn_buffer_bytes) {
        return Status::OK();  // Buffer full; *written stays 0.
      }
      take = std::min(n, inner_->conn_buffer_bytes - out.pending);
    }
    Timestamp at = inner_->clock->Now();
    if (inner_->delay_next_write > 0) {
      at += inner_->delay_next_write;
      inner_->delay_next_write = 0;
      inner_->stats.writes_delayed++;
    }
    if (is_server_ && inner_->truncate_armed) {
      inner_->truncate_armed = false;
      inner_->stats.writes_truncated++;
      size_t keep = std::min(inner_->truncate_keep, take);
      if (keep > 0) {
        out.chunks.push_back({std::string(data, keep), at});
        out.pending += keep;
      }
      pipe_->reset = true;
      inner_->cv.notify_all();
      *written = take;  // The writer believes the write succeeded.
      return Status::OK();
    }
    out.chunks.push_back({std::string(data, take), at});
    out.pending += take;
    inner_->cv.notify_all();
    *written = take;
    return Status::OK();
  }

  Status ReadAll(char* data, size_t n) override {
    const size_t want = n;
    size_t got = 0;
    std::unique_lock<std::mutex> lock(inner_->mu);
    // Two deadlines for one timeout: the real one bounds waiting for a
    // peer that is genuinely computing; the SimClock one is charged when a
    // partition guarantees no data will ever arrive (the time leap that
    // keeps chaos sweeps fast and deterministic).
    const Timestamp sim_deadline =
        read_timeout_ms_ > 0
            ? inner_->clock->Now() + Timestamp{read_timeout_ms_} * 1000
            : 0;
    const auto real_deadline =
        read_timeout_ms_ > 0 ? std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(read_timeout_ms_)
                             : std::chrono::steady_clock::time_point::max();
    while (got < want) {
      if (shut_) return Status::NetworkError("connection shut down");
      HalfPipe& in = incoming();
      if (!in.empty()) {
        HalfPipe::Chunk& front = in.chunks.front();
        if (front.deliver_at <= inner_->clock->Now()) {
          size_t take = std::min(front.data.size() - in.offset, want - got);
          std::memcpy(data + got, front.data.data() + in.offset, take);
          got += take;
          in.offset += take;
          in.pending -= take;
          if (in.offset == front.data.size()) {
            in.chunks.pop_front();
            in.offset = 0;
          }
          inner_->cv.notify_all();  // Freed buffer space: writers unblock.
          continue;
        }
        if (inner_->auto_advance) {
          inner_->LeapTo(front.deliver_at);
          inner_->cv.notify_all();
          continue;
        }
      } else {
        // Deliverable data always wins over error reporting, so a torn
        // write delivers its prefix before the reset surfaces.
        if (pipe_->reset) {
          return Status::NetworkError("connection reset by peer");
        }
        if (in.closed) {
          if (got == 0) {
            return Status::Unavailable("connection closed by peer");
          }
          return Status::NetworkError(
              "connection closed mid-read (" + std::to_string(got) + "/" +
              std::to_string(want) + " bytes)");
        }
        if ((inner_->partitioned ||
             inner_->LinkDownLocked(pipe_->client_node,
                                    pipe_->server_node)) &&
            inner_->auto_advance && read_timeout_ms_ > 0) {
          inner_->LeapTo(sim_deadline);
          inner_->cv.notify_all();
          return Status::DeadlineExceeded(
              "read timed out after " + std::to_string(read_timeout_ms_) +
              " ms (" + std::to_string(got) + "/" + std::to_string(want) +
              " bytes)");
        }
      }
      if (read_timeout_ms_ > 0) {
        if (inner_->cv.wait_until(lock, real_deadline) ==
            std::cv_status::timeout) {
          return Status::DeadlineExceeded(
              "read timed out after " + std::to_string(read_timeout_ms_) +
              " ms (" + std::to_string(got) + "/" + std::to_string(want) +
              " bytes)");
        }
      } else {
        inner_->cv.wait(lock);
      }
    }
    return Status::OK();
  }

  Status ReadSome(char* data, size_t n, size_t* got) override {
    *got = 0;
    std::lock_guard<std::mutex> lock(inner_->mu);
    if (shut_) return Status::NetworkError("connection shut down");
    HalfPipe& in = incoming();
    while (*got < n && !in.empty() &&
           in.chunks.front().deliver_at <= inner_->clock->Now()) {
      HalfPipe::Chunk& front = in.chunks.front();
      size_t take = std::min(front.data.size() - in.offset, n - *got);
      std::memcpy(data + *got, front.data.data() + in.offset, take);
      *got += take;
      in.offset += take;
      in.pending -= take;
      if (in.offset == front.data.size()) {
        in.chunks.pop_front();
        in.offset = 0;
      }
    }
    if (*got > 0) {
      inner_->cv.notify_all();  // Freed buffer space: writers unblock.
      return Status::OK();
    }
    if (in.empty()) {
      // Deliverable data always wins over error reporting (matches
      // ReadAll): the reset/EOF surfaces only once the pipe is drained.
      if (pipe_->reset) {
        return Status::NetworkError("connection reset by peer");
      }
      if (in.closed) return Status::Unavailable("connection closed by peer");
    }
    return Status::OK();  // Nothing deliverable yet (delayed or empty).
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    ShutdownLocked();
  }

  /// Poller-side readiness probe; inner_->mu held. True when the next
  /// ReadSome would make progress (data, EOF, reset, or shutdown). When the
  /// only pending data is delayed delivery, lowers *earliest to its
  /// delivery time so the poller can leap the clock.
  bool PollReadyLocked(Timestamp now, Timestamp* earliest) {
    if (shut_) return true;
    HalfPipe& in = incoming();
    if (!in.empty()) {
      Timestamp at = in.chunks.front().deliver_at;
      if (at <= now) return true;
      if (at < *earliest) *earliest = at;
      return false;
    }
    return pipe_->reset || in.closed;
  }

  /// Poller-side writability probe; inner_->mu held. True when the next
  /// WriteSome would make progress — accept bytes, blackhole them, or
  /// surface an error — i.e. everything except "buffer full".
  bool PollWritableLocked() {
    if (shut_ || pipe_->reset || peer_gone()) return true;
    if (inner_->partitioned ||
        inner_->LinkDownLocked(pipe_->client_node, pipe_->server_node)) {
      return true;  // Blackholed writes "succeed".
    }
    return inner_->conn_buffer_bytes == 0 ||
           outgoing().pending < inner_->conn_buffer_bytes;
  }

 private:
  HalfPipe& incoming() {
    return is_server_ ? pipe_->to_server : pipe_->to_client;
  }
  HalfPipe& outgoing() {
    return is_server_ ? pipe_->to_client : pipe_->to_server;
  }
  bool peer_gone() const {
    return is_server_ ? pipe_->client_gone : pipe_->server_gone;
  }

  void ShutdownLocked() {
    if (shut_) return;
    shut_ = true;
    (is_server_ ? pipe_->server_gone : pipe_->client_gone) = true;
    outgoing().closed = true;  // Peer sees EOF after draining.
    inner_->cv.notify_all();
  }

  std::shared_ptr<SimTransport::Inner> inner_;
  std::shared_ptr<Pipe> pipe_;
  const bool is_server_;
  // Guarded by inner_->mu (I/O and Shutdown may race across threads).
  bool shut_ = false;
  int read_timeout_ms_ = 0;
  int write_timeout_ms_ = 0;
};

// Scans the registered connections under the shared monitor. When nothing
// is ready but some connection holds delayed-delivery data, leaps SimClock
// to the earliest delivery time (mirroring WaitReadable) so delayed writes
// never cost real time.
class SimPoller final : public net::Poller {
 public:
  explicit SimPoller(std::shared_ptr<SimTransport::Inner> inner)
      : inner_(std::move(inner)) {}

  void Add(net::Connection* conn, uint64_t tag) override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    entries_.push_back({static_cast<SimConnection*>(conn), tag, false});
  }

  void Remove(net::Connection* conn) override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    for (size_t i = 0; i < entries_.size(); i++) {
      if (entries_[i].conn == conn) {
        entries_[i] = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  void SetWritable(net::Connection* conn, bool want) override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    for (Entry& e : entries_) {
      if (e.conn == conn) {
        e.want_write = want;
        return;
      }
    }
  }

  Status Wait(int timeout_ms, std::vector<uint64_t>* ready) override {
    ready->clear();
    std::unique_lock<std::mutex> lock(inner_->mu);
    const auto deadline = timeout_ms >= 0
                              ? std::chrono::steady_clock::now() +
                                    std::chrono::milliseconds(timeout_ms)
                              : std::chrono::steady_clock::time_point::max();
    while (true) {
      if (wakeup_) {
        wakeup_ = false;
        return Status::OK();
      }
      Timestamp earliest = std::numeric_limits<Timestamp>::max();
      const Timestamp now = inner_->clock->Now();
      for (const Entry& e : entries_) {
        if (e.conn->PollReadyLocked(now, &earliest) ||
            (e.want_write && e.conn->PollWritableLocked())) {
          ready->push_back(e.tag);
        }
      }
      if (!ready->empty()) return Status::OK();
      if (earliest != std::numeric_limits<Timestamp>::max() &&
          inner_->auto_advance) {
        inner_->LeapTo(earliest);
        inner_->cv.notify_all();
        continue;  // Re-scan: the leap made that data deliverable.
      }
      if (timeout_ms >= 0) {
        if (inner_->cv.wait_until(lock, deadline) == std::cv_status::timeout) {
          return Status::OK();  // *ready stays empty.
        }
      } else {
        inner_->cv.wait(lock);
      }
    }
  }

  void Wakeup() override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    wakeup_ = true;
    inner_->cv.notify_all();
  }

 private:
  struct Entry {
    SimConnection* conn;
    uint64_t tag;
    bool want_write;
  };
  std::shared_ptr<SimTransport::Inner> inner_;
  std::vector<Entry> entries_;  // Guarded by inner_->mu.
  bool wakeup_ = false;         // Guarded by inner_->mu; sticky until Wait.
};

class SimListener final : public net::Listener {
 public:
  SimListener(std::shared_ptr<SimTransport::Inner> inner,
              std::shared_ptr<SimTransport::Inner::ListenerState> state)
      : inner_(std::move(inner)), state_(std::move(state)) {}

  ~SimListener() override { Close(); }

  Status Accept(std::unique_ptr<net::Connection>* conn) override {
    std::unique_lock<std::mutex> lock(inner_->mu);
    while (state_->backlog.empty() && !state_->closed) {
      inner_->cv.wait(lock);
    }
    if (state_->closed) return Status::Aborted("listener closed");
    std::shared_ptr<Pipe> pipe = std::move(state_->backlog.front());
    state_->backlog.pop_front();
    inner_->stats.accepts++;
    *conn = std::make_unique<SimConnection>(inner_, std::move(pipe),
                                            /*is_server=*/true);
    return Status::OK();
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(inner_->mu);
    if (state_->closed) return;
    state_->closed = true;
    // Pending never-accepted connections get reset, as a closing TCP
    // listener does to its backlog.
    for (const std::shared_ptr<Pipe>& pipe : state_->backlog) {
      pipe->reset = true;
    }
    state_->backlog.clear();
    auto it = inner_->listeners.find(state_->port);
    if (it != inner_->listeners.end() && it->second == state_) {
      inner_->listeners.erase(it);  // The port is free to rebind.
    }
    inner_->cv.notify_all();
  }

  uint16_t port() const override { return state_->port; }

 private:
  std::shared_ptr<SimTransport::Inner> inner_;
  std::shared_ptr<SimTransport::Inner::ListenerState> state_;
};

}  // namespace

SimTransport::SimTransport(const SimTransportOptions& options)
    : inner_(std::make_shared<Inner>()) {
  clock_ = options.clock ? options.clock : std::make_shared<SimClock>();
  inner_->clock = clock_;
  inner_->auto_advance = options.auto_advance_clock;
  inner_->conn_buffer_bytes = options.conn_buffer_bytes;
}

SimTransport::~SimTransport() = default;

Status SimTransport::Listen(uint16_t port,
                            std::unique_ptr<net::Listener>* listener) {
  return ListenAs("", port, listener);
}

Status SimTransport::ListenAs(const std::string& node, uint16_t port,
                              std::unique_ptr<net::Listener>* listener) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  if (port == 0) {
    while (inner_->listeners.count(inner_->next_ephemeral)) {
      inner_->next_ephemeral++;
    }
    port = inner_->next_ephemeral++;
  } else if (inner_->listeners.count(port)) {
    return Status::NetworkError("bind " + Where(port) +
                                ": address already in use");
  }
  auto state = std::make_shared<Inner::ListenerState>();
  state->port = port;
  state->node = node;
  inner_->listeners[port] = state;
  *listener = std::make_unique<SimListener>(inner_, std::move(state));
  return Status::OK();
}

Status SimTransport::Connect(const std::string& host, uint16_t port,
                             int timeout_ms,
                             std::unique_ptr<net::Connection>* conn) {
  return ConnectFrom("", host, port, timeout_ms, conn);
}

Status SimTransport::ConnectFrom(const std::string& node,
                                 const std::string& host, uint16_t port,
                                 int timeout_ms,
                                 std::unique_ptr<net::Connection>* conn) {
  (void)host;  // Addressing is by port; node attribution is by facade.
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->stats.connects++;
  if (inner_->fail_next_connects > 0) {
    inner_->fail_next_connects--;
    inner_->stats.connects_failed++;
    return Status::Unavailable("connect " + Where(port) +
                               ": connection refused (injected)");
  }
  auto timeout_like_partition = [&]() -> Status {
    inner_->stats.connects_failed++;
    // SYNs vanish into the partition; charge the handshake deadline to
    // SimClock instead of really waiting it out.
    if (timeout_ms > 0) {
      if (inner_->auto_advance) {
        inner_->LeapTo(inner_->clock->Now() + Timestamp{timeout_ms} * 1000);
      }
      return Status::DeadlineExceeded("connect " + Where(port) +
                                      " timed out after " +
                                      std::to_string(timeout_ms) + " ms");
    }
    return Status::NetworkError("connect " + Where(port) +
                                ": network unreachable");
  };
  if (inner_->partitioned) return timeout_like_partition();
  auto it = inner_->listeners.find(port);
  if (it == inner_->listeners.end() || it->second->closed) {
    inner_->stats.connects_failed++;
    return Status::NetworkError("connect " + Where(port) +
                                ": connection refused");
  }
  // A severed machine pair looks like a partition (timeout), not a dead
  // process (refused): the listener is alive, its SYN-ACKs just never
  // arrive.
  if (inner_->LinkDownLocked(node, it->second->node)) {
    return timeout_like_partition();
  }
  auto pipe = std::make_shared<Pipe>();
  pipe->client_node = node;
  pipe->server_node = it->second->node;
  inner_->pipes.push_back(pipe);
  if (inner_->reorder_next_accepts > 0) {
    inner_->reorder_next_accepts--;
    it->second->backlog.push_front(pipe);
  } else {
    it->second->backlog.push_back(pipe);
  }
  inner_->cv.notify_all();
  // TCP backlog semantics: the connect completes now; Accept may lag (or
  // never come — the hung-server scenario).
  *conn = std::make_unique<SimConnection>(inner_, std::move(pipe),
                                          /*is_server=*/false);
  return Status::OK();
}

Status SimTransport::NewPoller(std::unique_ptr<net::Poller>* poller) {
  *poller = std::make_unique<SimPoller>(inner_);
  return Status::OK();
}

void SimTransport::FailNextConnects(int n) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->fail_next_connects = n < 0 ? 0 : n;
}

void SimTransport::SetPartitioned(bool on) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->partitioned = on;
  inner_->cv.notify_all();
}

bool SimTransport::partitioned() const {
  std::lock_guard<std::mutex> lock(inner_->mu);
  return inner_->partitioned;
}

void SimTransport::ResetAllConnections() {
  std::lock_guard<std::mutex> lock(inner_->mu);
  std::vector<std::weak_ptr<Pipe>> live;
  for (std::weak_ptr<Pipe>& weak : inner_->pipes) {
    if (std::shared_ptr<Pipe> pipe = weak.lock()) {
      inner_->ResetLocked(pipe.get());
      live.push_back(std::move(weak));
    }
  }
  inner_->pipes.swap(live);  // Drop expired entries while we are here.
  inner_->cv.notify_all();
}

void SimTransport::TruncateNextServerWrite(size_t keep_bytes) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->truncate_armed = true;
  inner_->truncate_keep = keep_bytes;
}

void SimTransport::DelayNextWrite(Timestamp delay_micros) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->delay_next_write = delay_micros < 0 ? 0 : delay_micros;
}

void SimTransport::ReorderNextAccept() {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->reorder_next_accepts++;
}

// A named machine on the simulated network: pure delegation with node
// attribution. Defined here (not in the anonymous namespace) because the
// header declares it a friend.
class NodeTransport final : public net::Transport {
 public:
  NodeTransport(SimTransport* owner, std::string node)
      : owner_(owner), node_(std::move(node)) {}

  Status Listen(uint16_t port,
                std::unique_ptr<net::Listener>* listener) override {
    return owner_->ListenAs(node_, port, listener);
  }
  Status Connect(const std::string& host, uint16_t port, int timeout_ms,
                 std::unique_ptr<net::Connection>* conn) override {
    return owner_->ConnectFrom(node_, host, port, timeout_ms, conn);
  }
  Status NewPoller(std::unique_ptr<net::Poller>* poller) override {
    return owner_->NewPoller(poller);
  }

 private:
  SimTransport* const owner_;
  const std::string node_;
};

net::Transport* SimTransport::ForNode(const std::string& node) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  std::unique_ptr<net::Transport>& slot = facades_[node];
  if (!slot) slot = std::make_unique<NodeTransport>(this, node);
  return slot.get();
}

void SimTransport::SetLinkPartitioned(const std::string& a,
                                      const std::string& b, bool on) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (on) {
    inner_->severed_links.insert(std::move(key));
  } else {
    inner_->severed_links.erase(key);
  }
  inner_->cv.notify_all();
}

void SimTransport::ClearLinkPartitions() {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->severed_links.clear();
  inner_->cv.notify_all();
}

void SimTransport::ResetNodeConnections(const std::string& node) {
  std::lock_guard<std::mutex> lock(inner_->mu);
  std::vector<std::weak_ptr<Pipe>> live;
  for (std::weak_ptr<Pipe>& weak : inner_->pipes) {
    if (std::shared_ptr<Pipe> pipe = weak.lock()) {
      if (pipe->client_node == node || pipe->server_node == node) {
        inner_->ResetLocked(pipe.get());
      }
      live.push_back(std::move(weak));
    }
  }
  inner_->pipes.swap(live);
  inner_->cv.notify_all();
}

SimTransportStats SimTransport::stats() const {
  std::lock_guard<std::mutex> lock(inner_->mu);
  return inner_->stats;
}

}  // namespace sim
}  // namespace lt
