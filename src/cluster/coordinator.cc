#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>

#include "util/coding.h"

namespace lt {
namespace cluster {

using wire::ErrCode;
using wire::MsgType;

Coordinator::Coordinator(const CoordinatorOptions& options) : opts_(options) {
  map_.epoch = 1;
}

Coordinator::~Coordinator() { Stop(); }

void Coordinator::AddGroup(uint32_t id, uint64_t hash_begin,
                           uint64_t hash_end, const Endpoint& primary,
                           const Endpoint& secondary) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardGroupInfo g;
  g.id = id;
  g.hash_begin = hash_begin;
  g.hash_end = hash_end;
  g.primary = primary;
  g.secondary = secondary;
  map_.groups.push_back(std::move(g));
  std::sort(map_.groups.begin(), map_.groups.end(),
            [](const ShardGroupInfo& a, const ShardGroupInfo& b) {
              return a.hash_begin < b.hash_begin;
            });
  map_.epoch++;
}

Status Coordinator::Start() {
  ServerOptions sopts;
  sopts.port = opts_.port;
  sopts.transport = opts_.transport;
  sopts.extension = [this](MsgType type, Slice*, std::string* out) {
    if (type != MsgType::kGetShardMap) {
      std::string err;
      err.push_back(static_cast<char>(ErrCode::kBadRequest));
      PutLengthPrefixedSlice(&err, "not a shard node");
      *out += wire::Frame(MsgType::kError, err);
      return false;
    }
    std::string resp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      map_.Encode(&resp);
    }
    *out += wire::Frame(MsgType::kShardMapResult, resp);
    return false;
  };
  server_ = std::make_unique<LittleTableServer>(nullptr, sopts);
  LT_RETURN_IF_ERROR(server_->Start());
  if (opts_.background) {
    probe_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(bg_mu_);
      while (!stopping_) {
        lock.unlock();
        ProbeOnce();
        lock.lock();
        bg_cv_.wait_for(lock,
                        std::chrono::milliseconds(opts_.probe_interval_ms),
                        [this] { return stopping_; });
      }
    });
  }
  return Status::OK();
}

void Coordinator::Stop() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    stopping_ = true;
  }
  bg_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  if (server_) server_->Stop();
  clients_.clear();
}

ShardMap Coordinator::Map() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_;
}

uint64_t Coordinator::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.epoch;
}

Client* Coordinator::ClientFor(const Endpoint& ep) {
  const std::string key = ep.ToString();
  auto it = clients_.find(key);
  if (it != clients_.end()) return it->second.get();
  ClientOptions copts = opts_.client;
  copts.transport = opts_.transport;
  copts.max_retries = 0;  // The probe loop IS the retry policy.
  std::unique_ptr<Client> client;
  // Connect lazily via Ping(deadline); a failed connect is just a failed
  // probe, so construction must not block on an unreachable node.
  Status s = Client::Connect(ep.host, ep.port, copts, &client);
  if (!s.ok()) return nullptr;
  Client* raw = client.get();
  clients_[key] = std::move(client);
  return raw;
}

void Coordinator::ProbeOnce() {
  // Snapshot the groups to probe without holding mu_ across network I/O.
  std::vector<ShardGroupInfo> groups;
  {
    std::lock_guard<std::mutex> lock(mu_);
    groups = map_.groups;
  }
  for (const ShardGroupInfo& g : groups) {
    Client* primary = ClientFor(g.primary);
    Status ping = primary ? primary->Ping(opts_.probe_deadline_ms)
                          : Status::Unavailable("unreachable");
    if (!ping.ok()) {
      // A dead connection should not poison the next round's probe.
      clients_.erase(g.primary.ToString());
    }
    std::lock_guard<std::mutex> lock(mu_);
    ShardGroupInfo* live = nullptr;
    for (ShardGroupInfo& cand : map_.groups) {
      if (cand.id == g.id) live = &cand;
    }
    if (live == nullptr || !(live->primary == g.primary)) {
      continue;  // Group changed under us; re-evaluate next round.
    }
    if (ping.ok()) {
      fail_streak_[g.id] = 0;
      continue;
    }
    if (++fail_streak_[g.id] < opts_.fail_threshold) continue;
    // Promote only when the secondary itself answers: failing over onto a
    // dead (or unreachable) node would lose the whole group for nothing.
    Status sec_ping;
    {
      // Probe outside mu_? The secondary ping is short and ProbeOnce is
      // single-threaded; holding mu_ here only blocks map fetches for the
      // probe deadline, which the deterministic harness tolerates.
      Client* secondary = ClientFor(live->secondary);
      sec_ping = secondary ? secondary->Ping(opts_.probe_deadline_ms)
                           : Status::Unavailable("unreachable");
      if (!sec_ping.ok()) clients_.erase(live->secondary.ToString());
    }
    if (!sec_ping.ok()) continue;
    std::swap(live->primary, live->secondary);
    map_.epoch++;
    fail_streak_[g.id] = 0;
    failovers_.fetch_add(1, std::memory_order_relaxed);
  }
  PushAssignments();
}

void Coordinator::PushAssignments() {
  // Push the current (group, epoch, role, peer) to every node, every
  // round. Agents treat assignments idempotently and reject stale epochs,
  // so re-pushing is safe and is what heals nodes that missed a failover
  // while partitioned or restarting.
  ShardMap snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = map_;
  }
  for (const ShardGroupInfo& g : snapshot.groups) {
    struct Target {
      Endpoint node;
      uint8_t role;
      Endpoint peer;
    };
    const Target targets[2] = {
        {g.primary, 1, g.secondary},
        {g.secondary, 2, g.primary},
    };
    for (const Target& t : targets) {
      Client* client = ClientFor(t.node);
      if (client == nullptr) continue;
      std::string body;
      PutVarint32(&body, g.id);
      PutVarint64(&body, snapshot.epoch);
      body.push_back(static_cast<char>(t.role));
      PutLengthPrefixedSlice(&body, t.peer.host);
      PutVarint32(&body, t.peer.port);
      MsgType resp_type;
      std::string resp_body;
      Status s = client->Call(MsgType::kAssignShard, body, &resp_type,
                              &resp_body);
      if (!s.ok()) clients_.erase(t.node.ToString());
    }
  }
}

}  // namespace cluster
}  // namespace lt
