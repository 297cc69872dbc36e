// SimTransport: an in-process network for deterministic whole-system
// simulation — no real sockets, and (almost) no real time.
//
// Server and Client run unchanged over the net::Transport interface; the
// simulated network gives the chaos harness (sim/chaos.h) a fault surface
// real TCP cannot offer deterministically:
//   - connection resets (RST): every open connection errors at once,
//     modeling a machine crash severing all of a server's connections;
//   - partitions: written bytes are blackholed and new connects fail, so a
//     client's reads time out exactly as on a silently dropping network;
//   - frame truncation: the next server-side write delivers only a prefix
//     and then resets, producing the torn frames a crash mid-write leaves;
//   - delayed delivery: a write becomes readable only at a later SimClock
//     time; a blocked reader leaps the clock forward instead of sleeping;
//   - reordered accepts: a pending connect jumps the accept queue,
//     shuffling the order connection threads are born in.
//
// Connect uses TCP backlog semantics: it succeeds as soon as a listener is
// bound, before Accept runs, so a hung server (listener that never accepts)
// is expressible. Read deadlines on partitioned connections are charged to
// SimClock and fail immediately in real time, which keeps thousand-seed
// chaos sweeps fast.
#ifndef LITTLETABLE_SIM_SIM_TRANSPORT_H_
#define LITTLETABLE_SIM_SIM_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "net/transport.h"
#include "util/clock.h"

namespace lt {
namespace sim {

struct SimTransportOptions {
  /// Clock delayed deliveries and partitioned-read deadlines are measured
  /// on. A reader that finds only delayed data advances it to the earliest
  /// delivery time instead of waiting (the simulation "time leap"), and a
  /// partitioned read charges its deadline to it. Null: the transport
  /// creates its own SimClock starting at 0.
  std::shared_ptr<SimClock> clock;
  /// Per-direction in-flight byte cap modeling a bounded kernel send
  /// buffer, honored by Connection::WriteSome only: once a connection
  /// direction holds this many unread bytes, WriteSome accepts nothing
  /// until the reader drains some (the poller reports writability then).
  /// WriteAll is exempt — it models the blocking path and legacy tests
  /// assume unbounded pipes. 0 = unbounded. This is what makes a simulated
  /// slow reader exert real backpressure on the server's streaming writes.
  size_t conn_buffer_bytes = 0;
};

/// Counters for assertions and the chaos log.
struct SimTransportStats {
  uint64_t connects = 0;          // Attempts, including failed ones.
  uint64_t connects_failed = 0;
  uint64_t accepts = 0;
  /// Connections with an open client end severed by ResetAllConnections or
  /// ResetNodeConnections.
  uint64_t resets_injected = 0;
  uint64_t writes_truncated = 0;
  uint64_t writes_delayed = 0;
  uint64_t bytes_blackholed = 0;  // Written during a partition, never seen.
};

class SimTransport final : public net::Transport {
 public:
  explicit SimTransport(const SimTransportOptions& options = {});
  ~SimTransport() override;

  Status Listen(uint16_t port,
                std::unique_ptr<net::Listener>* listener) override;
  Status Connect(const std::string& host, uint16_t port, int timeout_ms,
                 std::unique_ptr<net::Connection>* conn) override;
  /// Readiness multiplexer over simulated connections. When every watched
  /// connection's pending data is delayed delivery, Wait leaps SimClock to
  /// the earliest delivery time instead of sleeping — the same time-leap
  /// WaitReadable performs.
  Status NewPoller(std::unique_ptr<net::Poller>* poller) override;

  // --- Fault injection (thread-safe) ------------------------------------

  /// The next `n` connects fail with Unavailable("connection refused");
  /// 0 clears.
  void FailNextConnects(int n);

  /// While partitioned: connects fail, written bytes are blackholed, and
  /// reads see silence (DeadlineExceeded once their deadline passes).
  /// Already-delivered bytes remain readable.
  void SetPartitioned(bool on);
  bool partitioned() const;

  /// Severs every open connection: both ends get
  /// NetworkError("connection reset by peer") once pending deliverable data
  /// is drained. Models the server machine dying mid-conversation.
  void ResetAllConnections();

  /// The next write by an accepted (server-side) connection delivers only
  /// its first `keep_bytes` bytes, then the connection resets — a torn
  /// response frame.
  void TruncateNextServerWrite(size_t keep_bytes);

  /// The next write (either side) becomes readable only `delay_micros` of
  /// SimClock time later.
  void DelayNextWrite(Timestamp delay_micros);

  /// The next connect is pushed to the FRONT of its listener's accept
  /// queue, overtaking earlier pending connections.
  void ReorderNextAccept();

  // --- Multi-node simulation --------------------------------------------

  /// A Transport facade representing one named machine on this simulated
  /// network. Listeners bound and connections initiated through the facade
  /// are attributed to `node`, so individual machine pairs can be
  /// partitioned (SetLinkPartitioned) or crashed (ResetNodeConnections)
  /// while the rest of the cluster keeps talking. The facade shares this
  /// transport's clock, port space, and global fault state; it stays valid
  /// for the SimTransport's lifetime. Calling with the same name returns
  /// the same facade.
  net::Transport* ForNode(const std::string& node);

  /// Severs the (bidirectional) link between two named nodes: connects
  /// between them time out (charged to SimClock), written bytes are
  /// blackholed, and pending reads see silence until their deadline — the
  /// same observable behavior as a global SetPartitioned, scoped to one
  /// machine pair. Already-delivered bytes remain readable.
  void SetLinkPartitioned(const std::string& a, const std::string& b,
                          bool on);
  void ClearLinkPartitions();

  /// Severs every open connection with an endpoint attributed to `node`
  /// (both ends see a reset once deliverable data drains) — a single
  /// machine dying without touching the rest of the cluster.
  void ResetNodeConnections(const std::string& node);

  SimTransportStats stats() const;
  const std::shared_ptr<SimClock>& clock() const { return clock_; }

  /// Shared transport state; opaque outside sim_transport.cc (public only
  /// so the connection/listener implementations there can name it).
  struct Inner;

 private:
  friend class NodeTransport;

  /// Node-attributed Listen/Connect, used by the base interface (empty
  /// node) and the ForNode facades.
  Status ListenAs(const std::string& node, uint16_t port,
                  std::unique_ptr<net::Listener>* listener);
  Status ConnectFrom(const std::string& node, const std::string& host,
                     uint16_t port, int timeout_ms,
                     std::unique_ptr<net::Connection>* conn);

  std::shared_ptr<Inner> inner_;
  std::shared_ptr<SimClock> clock_;
  // ForNode facades, by node name; guarded by inner_->mu.
  std::map<std::string, std::unique_ptr<net::Transport>> facades_;
};

}  // namespace sim
}  // namespace lt

#endif  // LITTLETABLE_SIM_SIM_TRANSPORT_H_
