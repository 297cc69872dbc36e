// ReplicaAgent: one cluster node — a DB plus its server, wearing a role.
//
// A node is unassigned until the coordinator pushes a kAssignShard; it then
// serves one shard group as primary or secondary. The primary takes routed
// client traffic (inserts, queries, creates) and replicates to its peer in
// two complementary streams:
//
//   - Whole tablets: flushed tablets are immutable files, so replication is
//     a byte copy — CRC-verified on receipt, loaded and validated, then
//     committed through the same atomic descriptor update a local flush
//     uses (Table::InstallTablet). A periodic kTabletSetSync makes the
//     primary's on-disk set authoritative on the secondary (pruning tablets
//     merged away on the primary) and returns the secondary's actual file
//     lists so the primary's picture self-heals after a secondary restart.
//   - A redo window: acknowledged-but-unflushed rows, shipped as the exact
//     canonicalized insert bodies the primary applied (server-assigned
//     timestamps already substituted), sequence-numbered per stream. The
//     secondary buffers them and replays on promotion, so the §3.1 loss
//     window after a primary crash is only what was acked after the last
//     completed ship round.
//
// The secondary's durable state is therefore always a valid §3.1 prefix of
// the primary's history: tablet installs commit in flush order (ShipOnce
// flushes before shipping, and prunes only after every ship in the round
// landed), and redo replay preserves batch atomicity because each entry is
// one InsertBatch. Streams are identified by a stamp taken at role
// adoption: a primary that restarts (same epoch) starts a new stream, and
// the secondary discards buffered entries from the old one instead of
// misreading the new sequence numbers as duplicates.
#ifndef LITTLETABLE_CLUSTER_AGENT_H_
#define LITTLETABLE_CLUSTER_AGENT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_map.h"
#include "core/db.h"
#include "net/client.h"
#include "net/server.h"

namespace lt {
namespace cluster {

/// Wire codec for a TabletMeta inside replication messages (kShipTablet,
/// kTabletSetSync). Exposed for tests that craft ship frames by hand.
void EncodeTabletMeta(std::string* dst, const TabletMeta& m);
bool DecodeTabletMeta(Slice* in, TabletMeta* m);

struct AgentOptions {
  /// Port to serve on (0 = ephemeral).
  uint16_t port = 0;
  /// Transport for the server and the shipper's peer connection.
  net::Transport* transport = nullptr;
  /// Base server options (port/transport/extension are overridden).
  ServerOptions server;
  /// Template for the shipper's connection to the peer.
  ClientOptions client;
  /// Maximum buffered redo entries on the primary. When the window is
  /// full, routed inserts are rejected with kServerBusy — bounding how
  /// much acknowledged data can sit outside both replicas' disks.
  size_t redo_window = 4096;
  /// Background ship cadence; used only when `background_ship` is set.
  /// Deterministic harnesses drive ShipOnce() themselves.
  bool background_ship = false;
  int ship_interval_ms = 500;
};

class ReplicaAgent {
 public:
  enum class Role : uint8_t { kUnassigned = 0, kPrimary = 1, kSecondary = 2 };

  /// `db` is not owned and must outlive the agent.
  ReplicaAgent(DB* db, const AgentOptions& options);
  ~ReplicaAgent();

  Status Start();
  void Stop();

  uint16_t port() const { return server_ ? server_->port() : 0; }
  LittleTableServer* server() { return server_.get(); }
  DB* db() { return db_; }

  Role role() const;
  uint64_t epoch() const;
  uint32_t group() const;

  /// One replication round (primary only): redo entries → local FlushAll →
  /// missing tablets → set-sync (prune + floor advance). Returns OK only
  /// when every step landed, in which case everything acknowledged before
  /// the call is durable on BOTH nodes. Any failure leaves state
  /// consistent and retryable.
  Status ShipOnce();

  /// Redo entries currently buffered (primary) or pending replay
  /// (secondary) — tests and the chaos oracle.
  size_t redo_size() const;
  uint64_t redo_floor() const;

 private:
  struct RedoEntry {
    uint64_t seq = 0;
    uint8_t kind = 0;  // 1 = insert body, 2 = create-table body.
    std::string body;
  };

  void Handle(wire::MsgType type, Slice body, std::string* out);
  void HandleAssign(Slice body, std::string* out);
  void HandleRoutedInsert(Slice body, std::string* out);
  /// Checks the header under mu_; true hands `*body`, narrowed to an inner
  /// kQuery, back to the server to stream (ServerOptions::extension).
  bool HandleRoutedQuery(Slice* body, std::string* out);
  void HandleRoutedCreate(Slice body, std::string* out);
  void HandleReplicateRows(Slice body, std::string* out);
  void HandleShipTablet(Slice body, std::string* out);
  void HandleTabletSetSync(Slice body, std::string* out);

  /// Checks the (group, epoch) header of a routed request against the
  /// node's current role. On mismatch writes kWrongShard and returns
  /// false. `need` is the role the request requires.
  bool CheckRouted(Slice* body, Role need, std::string* out);

  /// Rewrites an insert body with server-assigned timestamps substituted,
  /// so the redo copy replays byte-identically. Returns false on any
  /// parse problem (the request is then forwarded untouched — it will
  /// fail dispatch the same way, and nothing gets acked or buffered).
  bool CanonicalizeInsert(Slice body, std::string* canonical);

  void ReplyErr(std::string* out, wire::ErrCode code, const std::string& msg);
  static bool FirstFrameIsOk(const std::string& frames);
  static bool FirstFrameIsErr(const std::string& frames, wire::ErrCode code);

  /// Promotion: replay buffered redo inserts in sequence order, then adopt
  /// the primary role with a fresh stream. mu_ held by caller; released
  /// around the replay.
  void PromoteLocked(std::unique_lock<std::mutex>& lock);

  Client* PeerClientLocked();

  DB* const db_;
  const AgentOptions opts_;
  std::unique_ptr<LittleTableServer> server_;

  mutable std::mutex mu_;
  Role role_ = Role::kUnassigned;
  uint32_t group_ = 0;
  uint64_t epoch_ = 0;
  Endpoint peer_;
  std::unique_ptr<Client> peer_client_;

  // ---- Primary state (guarded by mu_). ----
  uint64_t stream_ = 0;       // Stamped at role adoption.
  uint64_t redo_head_ = 0;    // Last appended sequence number.
  uint64_t redo_floor_ = 0;   // Entries <= floor are durable on the peer.
  uint64_t peer_acked_ = 0;   // Peer's contiguously-stored head.
  std::deque<RedoEntry> redo_;
  // What we believe the peer holds on disk, per table (self-healed from
  // every set-sync reply).
  std::map<std::string, std::vector<TabletMeta>> peer_files_;

  // ---- Secondary state (guarded by mu_). ----
  uint64_t in_stream_ = 0;       // Stream currently being received.
  uint64_t next_expected_ = 1;   // Next sequence number to accept.
  std::deque<RedoEntry> pending_;  // Buffered inserts awaiting promotion.

  std::thread ship_thread_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stopping_ = false;
};

}  // namespace cluster
}  // namespace lt

#endif  // LITTLETABLE_CLUSTER_AGENT_H_
