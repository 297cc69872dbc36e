#include "cluster/agent.h"

#include <algorithm>
#include <chrono>

#include "core/row_codec.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace lt {
namespace cluster {

using wire::ErrCode;
using wire::MsgType;

void EncodeTabletMeta(std::string* dst, const TabletMeta& m) {
  PutLengthPrefixedSlice(dst, m.filename);
  PutVarint64(dst, ZigZagEncode(m.min_ts));
  PutVarint64(dst, ZigZagEncode(m.max_ts));
  PutVarint64(dst, m.file_bytes);
  PutVarint64(dst, m.row_count);
  PutVarint64(dst, ZigZagEncode(m.flushed_at));
  PutVarint32(dst, m.schema_version);
}

bool DecodeTabletMeta(Slice* in, TabletMeta* m) {
  Slice fname;
  uint64_t zz_min, zz_max, zz_flushed;
  if (!GetLengthPrefixedSlice(in, &fname) || !GetVarint64(in, &zz_min) ||
      !GetVarint64(in, &zz_max) || !GetVarint64(in, &m->file_bytes) ||
      !GetVarint64(in, &m->row_count) || !GetVarint64(in, &zz_flushed) ||
      !GetVarint32(in, &m->schema_version)) {
    return false;
  }
  m->filename = fname.ToString();
  m->min_ts = ZigZagDecode(zz_min);
  m->max_ts = ZigZagDecode(zz_max);
  m->flushed_at = ZigZagDecode(zz_flushed);
  return true;
}

namespace {

// The identity triple used for "does the peer hold this tablet": name
// alone is not enough across divergent histories, so size and row count
// ride along everywhere a tablet is referenced without its bytes.
void EncodeTabletRef(std::string* dst, const TabletMeta& m) {
  PutLengthPrefixedSlice(dst, m.filename);
  PutVarint64(dst, m.file_bytes);
  PutVarint64(dst, m.row_count);
}

bool DecodeTabletRef(Slice* in, TabletMeta* m) {
  Slice fname;
  if (!GetLengthPrefixedSlice(in, &fname) ||
      !GetVarint64(in, &m->file_bytes) || !GetVarint64(in, &m->row_count)) {
    return false;
  }
  m->filename = fname.ToString();
  return true;
}

bool SameRef(const TabletMeta& a, const TabletMeta& b) {
  return a.filename == b.filename && a.file_bytes == b.file_bytes &&
         a.row_count == b.row_count;
}

}  // namespace

ReplicaAgent::ReplicaAgent(DB* db, const AgentOptions& options)
    : db_(db), opts_(options) {}

ReplicaAgent::~ReplicaAgent() { Stop(); }

Status ReplicaAgent::Start() {
  ServerOptions sopts = opts_.server;
  sopts.port = opts_.port;
  sopts.transport = opts_.transport;
  sopts.extension = [this](MsgType type, Slice* body, std::string* out) {
    if (type == MsgType::kRoutedQuery) return HandleRoutedQuery(body, out);
    Handle(type, *body, out);
    return false;
  };
  server_ = std::make_unique<LittleTableServer>(db_, sopts);
  LT_RETURN_IF_ERROR(server_->Start());
  if (opts_.background_ship) {
    ship_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(bg_mu_);
      while (!stopping_) {
        lock.unlock();
        if (role() == Role::kPrimary) ShipOnce();
        lock.lock();
        bg_cv_.wait_for(lock,
                        std::chrono::milliseconds(opts_.ship_interval_ms),
                        [this] { return stopping_; });
      }
    });
  }
  return Status::OK();
}

void ReplicaAgent::Stop() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    stopping_ = true;
  }
  bg_cv_.notify_all();
  if (ship_thread_.joinable()) ship_thread_.join();
  if (server_) server_->Stop();
  std::lock_guard<std::mutex> lock(mu_);
  peer_client_.reset();
}

ReplicaAgent::Role ReplicaAgent::role() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_;
}

uint64_t ReplicaAgent::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint32_t ReplicaAgent::group() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_;
}

size_t ReplicaAgent::redo_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_ == Role::kPrimary ? redo_.size() : pending_.size();
}

uint64_t ReplicaAgent::redo_floor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redo_floor_;
}

void ReplicaAgent::ReplyErr(std::string* out, ErrCode code,
                            const std::string& msg) {
  std::string body;
  body.push_back(static_cast<char>(code));
  PutLengthPrefixedSlice(&body, msg);
  *out += wire::Frame(MsgType::kError, body);
}

bool ReplicaAgent::FirstFrameIsOk(const std::string& frames) {
  return frames.size() >= 5 &&
         static_cast<MsgType>(frames[4]) == MsgType::kOk;
}

bool ReplicaAgent::FirstFrameIsErr(const std::string& frames, ErrCode code) {
  return frames.size() >= 6 &&
         static_cast<MsgType>(frames[4]) == MsgType::kError &&
         static_cast<ErrCode>(frames[5]) == code;
}

void ReplicaAgent::Handle(MsgType type, Slice body, std::string* out) {
  switch (type) {
    case MsgType::kGetShardMap:
      return ReplyErr(out, ErrCode::kBadRequest, "not a coordinator");
    case MsgType::kAssignShard: return HandleAssign(body, out);
    case MsgType::kRoutedInsert: return HandleRoutedInsert(body, out);
    case MsgType::kRoutedCreate: return HandleRoutedCreate(body, out);
    case MsgType::kReplicateRows: return HandleReplicateRows(body, out);
    case MsgType::kShipTablet: return HandleShipTablet(body, out);
    case MsgType::kTabletSetSync: return HandleTabletSetSync(body, out);
    default:
      return ReplyErr(out, ErrCode::kBadRequest, "unknown cluster opcode");
  }
}

bool ReplicaAgent::CheckRouted(Slice* body, Role need, std::string* out) {
  uint32_t group;
  uint64_t epoch;
  if (!GetVarint32(body, &group) || !GetVarint64(body, &epoch)) {
    ReplyErr(out, ErrCode::kInvalidArgument, "bad routed header");
    return false;
  }
  if (role_ != need || group != group_ || epoch != epoch_) {
    ReplyErr(out, ErrCode::kWrongShard,
             "not serving group " + std::to_string(group) + " at epoch " +
                 std::to_string(epoch));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Role assignment.

void ReplicaAgent::HandleAssign(Slice body, std::string* out) {
  uint32_t group;
  uint64_t epoch;
  Slice host;
  uint32_t port;
  if (!GetVarint32(&body, &group) || !GetVarint64(&body, &epoch) ||
      body.empty()) {
    return ReplyErr(out, ErrCode::kInvalidArgument, "bad assignment");
  }
  const uint8_t role_byte = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  if ((role_byte != 1 && role_byte != 2) ||
      !GetLengthPrefixedSlice(&body, &host) || !GetVarint32(&body, &port) ||
      port > 65535) {
    return ReplyErr(out, ErrCode::kInvalidArgument, "bad assignment");
  }
  const Role new_role = role_byte == 1 ? Role::kPrimary : Role::kSecondary;

  std::unique_lock<std::mutex> lock(mu_);
  if (epoch < epoch_) {
    return ReplyErr(out, ErrCode::kWrongShard, "stale assignment epoch");
  }
  const Endpoint new_peer{host.ToString(), static_cast<uint16_t>(port)};
  const bool role_change = new_role != role_ || group != group_;
  epoch_ = epoch;
  group_ = group;
  if (!(peer_ == new_peer)) {
    peer_ = new_peer;
    peer_client_.reset();
  }
  if (!role_change) {
    // Same role at a newer epoch (e.g. another group failed over, or a
    // re-push): history is continuous, so replication state survives.
    *out += wire::Frame(MsgType::kOk, "");
    return;
  }
  if (new_role == Role::kPrimary) {
    PromoteLocked(lock);
  } else {
    // Demotion (or fresh join as secondary): unflushed local rows may not
    // be part of the new primary's history — drop them so the on-disk
    // prefix is this node's replication starting point. Tablet divergence
    // is healed by shipping (install-replace) + set-sync pruning.
    role_ = Role::kSecondary;
    for (const std::string& name : db_->ListTables()) {
      if (DB::IsSystemTableName(name)) continue;
      if (std::shared_ptr<Table> t = db_->GetTable(name)) t->DiscardMem();
    }
    pending_.clear();
    in_stream_ = 0;
    next_expected_ = 1;
    redo_.clear();
    redo_head_ = redo_floor_ = peer_acked_ = 0;
    peer_files_.clear();
  }
  *out += wire::Frame(MsgType::kOk, "");
}

void ReplicaAgent::PromoteLocked(std::unique_lock<std::mutex>& lock) {
  // Replay buffered redo entries in sequence order before taking client
  // traffic: each entry is one canonicalized InsertBatch body, so replay
  // preserves batch atomicity and is byte-identical to what the old
  // primary served. A batch whose rows already arrived via a shipped
  // tablet fails AlreadyExists wholesale — the rows are present, so that
  // is success, not conflict.
  std::deque<RedoEntry> replay;
  replay.swap(pending_);
  in_stream_ = 0;
  next_expected_ = 1;
  lock.unlock();
  for (const RedoEntry& e : replay) {
    std::string resp;
    server_->Handle(e.kind == 2 ? MsgType::kCreateTable : MsgType::kInsert,
                    Slice(e.body), &resp);
  }
  lock.lock();
  role_ = Role::kPrimary;
  // A fresh stream id, strictly increasing across this node's primary
  // terms, so a peer that buffered entries from an earlier term (same
  // epoch after a quick crash-restart) can tell the difference.
  const uint64_t now = static_cast<uint64_t>(db_->clock()->Now());
  stream_ = std::max<uint64_t>(now, stream_ + 1);
  redo_.clear();
  redo_head_ = 0;
  redo_floor_ = 0;
  peer_acked_ = 0;
  peer_files_.clear();
}

// ---------------------------------------------------------------------------
// Routed client traffic (primary).

bool ReplicaAgent::CanonicalizeInsert(Slice body, std::string* canonical) {
  Slice in = body;
  Slice name;
  uint32_t version, count;
  if (!GetLengthPrefixedSlice(&in, &name)) return false;
  std::shared_ptr<Table> table = db_->GetTable(name.ToString());
  if (!table) return false;
  std::shared_ptr<const Schema> schema = table->schema();
  if (!GetVarint32(&in, &version) || version != schema->version()) {
    return false;
  }
  if (!GetVarint32(&in, &count) || count > 10u * 1000 * 1000) return false;
  std::string outb;
  PutLengthPrefixedSlice(&outb, name);
  PutVarint32(&outb, version);
  PutVarint32(&outb, count);
  const Timestamp now = db_->clock()->Now();
  for (uint32_t i = 0; i < count; i++) {
    Row row;
    if (!DecodeRow(&in, *schema, &row).ok()) return false;
    if (row[schema->ts_index()].AsInt() == wire::kOmittedTimestamp) {
      row[schema->ts_index()] = Value::Ts(now);
    }
    EncodeRow(&outb, *schema, row);
  }
  *canonical = std::move(outb);
  return true;
}

void ReplicaAgent::HandleRoutedInsert(Slice body, std::string* out) {
  // mu_ held across apply + redo append: redo order must equal the
  // table-apply order or replay could resolve a cross-batch duplicate
  // differently than the primary did.
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckRouted(&body, Role::kPrimary, out)) return;
  Slice peek = body;
  Slice name;
  if (GetLengthPrefixedSlice(&peek, &name) &&
      DB::IsSystemTableName(name.ToString())) {
    return ReplyErr(out, ErrCode::kInvalidArgument,
                    "__sys tables are not writable through the cluster");
  }
  if (redo_.size() >= opts_.redo_window) {
    // Bounding the window bounds the documented §3.1 loss surface: an
    // insert we cannot buffer for the peer is an insert we refuse to ack.
    return ReplyErr(out, ErrCode::kServerBusy, "replication window full");
  }
  std::string canonical;
  if (!CanonicalizeInsert(body, &canonical)) {
    // Unparseable against the current schema: forward untouched. Dispatch
    // produces the proper error and nothing is acked, so nothing needs
    // buffering.
    server_->Handle(MsgType::kInsert, body, out);
    return;
  }
  std::string resp;
  server_->Handle(MsgType::kInsert, Slice(canonical), &resp);
  if (FirstFrameIsOk(resp)) {
    redo_.push_back(RedoEntry{++redo_head_, 1, canonical});
  }
  *out += resp;
}

void ReplicaAgent::HandleRoutedCreate(Slice body, std::string* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckRouted(&body, Role::kPrimary, out)) return;
  Slice peek = body;
  Slice name;
  if (GetLengthPrefixedSlice(&peek, &name) &&
      DB::IsSystemTableName(name.ToString())) {
    return ReplyErr(out, ErrCode::kInvalidArgument,
                    "__sys tables cannot be created through the cluster");
  }
  if (redo_.size() >= opts_.redo_window) {
    return ReplyErr(out, ErrCode::kServerBusy, "replication window full");
  }
  std::string resp;
  server_->Handle(MsgType::kCreateTable, body, &resp);
  if (FirstFrameIsOk(resp)) {
    redo_.push_back(RedoEntry{++redo_head_, 2, body.ToString()});
  }
  *out += resp;
}

bool ReplicaAgent::HandleRoutedQuery(Slice* body, std::string* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!CheckRouted(body, Role::kPrimary, out)) return false;
  }
  if (body->empty()) {
    ReplyErr(out, ErrCode::kInvalidArgument, "empty routed payload");
    return false;
  }
  const MsgType inner = static_cast<MsgType>((*body)[0]);
  body->remove_prefix(1);
  // Inner ops execute outside mu_: they never touch replication state,
  // and queries can be slow.
  switch (inner) {
    case MsgType::kQuery:
      return true;  // The server's worker streams it like a direct kQuery.
    case MsgType::kLatestRow:
    case MsgType::kGetTable:
    case MsgType::kFlushThrough:
      // Read-only (or idempotent-flush) inner ops answer in one frame.
      server_->Handle(inner, *body, out);
      return false;
    default:
      ReplyErr(out, ErrCode::kBadRequest,
               "op not allowed through kRoutedQuery");
      return false;
  }
}

// ---------------------------------------------------------------------------
// Replication receive path (secondary).

void ReplicaAgent::HandleReplicateRows(Slice body, std::string* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckRouted(&body, Role::kSecondary, out)) return;
  uint64_t stream, floor, first_seq;
  uint32_t count;
  if (!GetVarint64(&body, &stream) || !GetVarint64(&body, &floor) ||
      !GetVarint64(&body, &first_seq) || !GetVarint32(&body, &count)) {
    return ReplyErr(out, ErrCode::kInvalidArgument, "bad replicate body");
  }
  if (stream != in_stream_) {
    // A new primary term: buffered entries from the old stream describe a
    // history that no longer continues — drop them and resynchronize at
    // the sender's floor (everything at or below it reaches us as shipped
    // tablets instead).
    pending_.clear();
    in_stream_ = stream;
    next_expected_ = floor + 1;
  }
  while (!pending_.empty() && pending_.front().seq <= floor) {
    pending_.pop_front();
  }
  if (next_expected_ <= floor) next_expected_ = floor + 1;
  for (uint32_t i = 0; i < count; i++) {
    if (body.empty()) {
      return ReplyErr(out, ErrCode::kInvalidArgument, "bad replicate body");
    }
    const uint8_t kind = static_cast<uint8_t>(body[0]);
    body.remove_prefix(1);
    Slice entry;
    if (!GetLengthPrefixedSlice(&body, &entry)) {
      return ReplyErr(out, ErrCode::kInvalidArgument, "bad replicate body");
    }
    const uint64_t seq = first_seq + i;
    if (seq < next_expected_) continue;  // Duplicate resend.
    if (seq > next_expected_) break;     // Gap; ack below triggers resend.
    Slice peek = entry;
    Slice name;
    if (GetLengthPrefixedSlice(&peek, &name) &&
        DB::IsSystemTableName(name.ToString())) {
      // Never let replicated traffic cross into the reserved namespace.
      return ReplyErr(out, ErrCode::kInvalidArgument,
                      "__sys entry in replication stream");
    }
    if (kind == 2) {
      // Creates apply immediately so shipped tablets always find their
      // table; AlreadyExists (re-replay after a torn round) is fine.
      std::string resp;
      server_->Handle(MsgType::kCreateTable, entry, &resp);
      if (!FirstFrameIsOk(resp) &&
          !FirstFrameIsErr(resp, ErrCode::kAlreadyExists)) {
        break;  // Don't advance past a failed apply; ack forces a resend.
      }
    } else {
      pending_.push_back(RedoEntry{seq, kind, entry.ToString()});
    }
    next_expected_ = seq + 1;
  }
  std::string ack;
  PutVarint64(&ack, next_expected_ - 1);
  *out += wire::Frame(MsgType::kRedoAck, ack);
}

void ReplicaAgent::HandleShipTablet(Slice body, std::string* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slice header = body;
    if (!CheckRouted(&header, Role::kSecondary, out)) return;
    body = header;
  }
  Slice name_s;
  Schema schema;
  uint64_t ttl_u;
  TabletMeta meta;
  uint32_t masked_crc;
  if (!GetLengthPrefixedSlice(&body, &name_s) ||
      !Schema::DecodeFrom(&body, &schema).ok() ||
      !GetVarint64(&body, &ttl_u) || !DecodeTabletMeta(&body, &meta) ||
      !GetFixed32(&body, &masked_crc)) {
    return ReplyErr(out, ErrCode::kInvalidArgument, "bad ship body");
  }
  const std::string name = name_s.ToString();
  if (DB::IsSystemTableName(name)) {
    return ReplyErr(out, ErrCode::kInvalidArgument,
                    "__sys tablets cannot be shipped");
  }
  // The payload is the rest of the body; verify before any disk I/O so a
  // torn or corrupted transfer is rejected whole (the install itself
  // validates again by loading the tablet).
  if (crc32c::Unmask(masked_crc) != crc32c::Value(body.data(), body.size())) {
    return ReplyErr(out, ErrCode::kCorruption, "shipped tablet crc mismatch");
  }
  std::shared_ptr<Table> table = db_->GetTable(name);
  if (!table) {
    TableOptions topts = db_->options().table_defaults;
    topts.ttl = static_cast<Timestamp>(ttl_u);
    Status cs = db_->CreateTable(name, schema, &topts);
    if (!cs.ok() && !cs.IsAlreadyExists()) {
      ReplyErr(out, wire::CodeForStatus(cs), cs.message());
      return;
    }
    table = db_->GetTable(name);
    if (!table) {
      return ReplyErr(out, ErrCode::kNotFound, "table vanished mid-ship");
    }
  }
  Status s = table->InstallTablet(meta, body);
  if (s.ok()) {
    *out += wire::Frame(MsgType::kOk, "");
  } else {
    ReplyErr(out, wire::CodeForStatus(s), s.message());
  }
}

void ReplicaAgent::HandleTabletSetSync(Slice body, std::string* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!CheckRouted(&body, Role::kSecondary, out)) return;
  uint64_t stream, floor;
  uint32_t ntables;
  if (!GetVarint64(&body, &stream) || !GetVarint64(&body, &floor) ||
      !GetVarint32(&body, &ntables) || ntables > 1u << 20) {
    return ReplyErr(out, ErrCode::kInvalidArgument, "bad set-sync body");
  }
  for (uint32_t t = 0; t < ntables; t++) {
    Slice name_s;
    uint32_t nfiles;
    if (!GetLengthPrefixedSlice(&body, &name_s) ||
        !GetVarint32(&body, &nfiles) || nfiles > 1u << 20) {
      return ReplyErr(out, ErrCode::kInvalidArgument, "bad set-sync body");
    }
    std::vector<TabletMeta> keep;
    keep.reserve(nfiles);
    for (uint32_t f = 0; f < nfiles; f++) {
      TabletMeta m;
      if (!DecodeTabletRef(&body, &m)) {
        return ReplyErr(out, ErrCode::kInvalidArgument, "bad set-sync body");
      }
      keep.push_back(std::move(m));
    }
    const std::string name = name_s.ToString();
    if (DB::IsSystemTableName(name)) continue;
    std::shared_ptr<Table> table = db_->GetTable(name);
    if (!table) continue;  // Nothing local to prune.
    Status s = table->RetainOnlyTablets(keep);
    if (!s.ok()) {
      ReplyErr(out, wire::CodeForStatus(s), s.message());
      return;
    }
  }
  // Adopt the floor: everything at or below it is on our disk now (the
  // sender prunes only after every ship in the round landed), so buffered
  // duplicates can go, and a post-restart stream resumes from here.
  if (stream != in_stream_) {
    pending_.clear();
    in_stream_ = stream;
    next_expected_ = floor + 1;
  } else {
    while (!pending_.empty() && pending_.front().seq <= floor) {
      pending_.pop_front();
    }
    if (next_expected_ <= floor) next_expected_ = floor + 1;
  }
  // Reply with the authoritative local picture so the sender's peer-state
  // self-heals after our restarts: ack head first (same leading field as
  // kRedoAck everywhere), then per-table file lists.
  std::string ack;
  PutVarint64(&ack, next_expected_ - 1);
  std::vector<std::string> names = db_->ListTables();
  std::string tables_body;
  uint32_t ntables_out = 0;
  for (const std::string& name : names) {
    if (DB::IsSystemTableName(name)) continue;
    std::shared_ptr<Table> table = db_->GetTable(name);
    if (!table) continue;
    PutLengthPrefixedSlice(&tables_body, name);
    std::vector<TabletMeta> metas = table->DiskTablets();
    PutVarint32(&tables_body, static_cast<uint32_t>(metas.size()));
    for (const TabletMeta& m : metas) EncodeTabletRef(&tables_body, m);
    ntables_out++;
  }
  PutVarint32(&ack, ntables_out);
  ack += tables_body;
  *out += wire::Frame(MsgType::kRedoAck, ack);
}

// ---------------------------------------------------------------------------
// Ship path (primary).

Client* ReplicaAgent::PeerClientLocked() {
  if (peer_client_) return peer_client_.get();
  if (peer_.host.empty()) return nullptr;
  ClientOptions copts = opts_.client;
  copts.transport = opts_.transport;
  copts.max_retries = 0;  // ShipOnce rounds are the retry policy.
  std::unique_ptr<Client> client;
  if (!Client::Connect(peer_.host, peer_.port, copts, &client).ok()) {
    return nullptr;
  }
  peer_client_ = std::move(client);
  return peer_client_.get();
}

Status ReplicaAgent::ShipOnce() {
  std::unique_lock<std::mutex> lock(mu_);
  if (role_ != Role::kPrimary) {
    return Status::InvalidArgument("not a primary");
  }
  const uint32_t my_group = group_;
  const uint64_t my_epoch = epoch_;
  const uint64_t my_stream = stream_;
  Client* peer = PeerClientLocked();
  if (peer == nullptr) {
    return Status::Unavailable("peer unreachable");
  }
  auto header = [&](std::string* dst) {
    PutVarint32(dst, my_group);
    PutVarint64(dst, my_epoch);
  };
  auto check_still_primary = [&]() {
    return role_ == Role::kPrimary && epoch_ == my_epoch &&
           stream_ == my_stream;
  };
  auto drop_peer = [&](const Status& s) {
    peer_client_.reset();
    return s;
  };

  // Step 1: replicate the redo tail (always sent, even empty — it carries
  // the stream id and floor, which is how a restarted secondary resyncs,
  // and its ack tells us where the peer really is).
  std::string rep;
  header(&rep);
  PutVarint64(&rep, my_stream);
  PutVarint64(&rep, redo_floor_);
  const uint64_t send_from = std::max(peer_acked_, redo_floor_) + 1;
  uint32_t nsend = 0;
  std::string entries;
  for (const RedoEntry& e : redo_) {
    if (e.seq < send_from) continue;
    entries.push_back(static_cast<char>(e.kind));
    PutLengthPrefixedSlice(&entries, e.body);
    nsend++;
  }
  PutVarint64(&rep, send_from);
  PutVarint32(&rep, nsend);
  rep += entries;
  const uint64_t cover = redo_head_;  // Flushed below; shipped as tablets.
  lock.unlock();

  MsgType rt;
  std::string rb;
  Status s = peer->Call(MsgType::kReplicateRows, rep, &rt, &rb);
  lock.lock();
  if (!s.ok()) return drop_peer(s);
  if (rt != MsgType::kRedoAck) {
    return Status::Aborted("peer rejected replication");
  }
  {
    Slice in(rb);
    uint64_t ack;
    if (!GetVarint64(&in, &ack)) {
      return drop_peer(Status::Corruption("bad redo ack"));
    }
    if (!check_still_primary()) return Status::Aborted("role changed");
    // Adopt the peer's answer verbatim — with one request in flight it IS
    // the peer's state, and taking max would mask a peer restart.
    peer_acked_ = ack;
  }
  lock.unlock();

  // Step 2: flush, so the tablet snapshot below covers every redo entry
  // up to `cover`.
  LT_RETURN_IF_ERROR(db_->FlushAll());

  // Step 3: snapshot the target tablet set per table, then ship whatever
  // the peer lacks. The snapshot (one descriptor read per table) is the
  // consistent state the peer converges to this round; tablets merged
  // away mid-round make ExportTablet fail and abort the round, which just
  // retries against a fresh snapshot later.
  struct Target {
    std::string name;
    std::shared_ptr<const Schema> schema;
    Timestamp ttl = 0;
    std::vector<TabletMeta> metas;
  };
  std::vector<Target> targets;
  for (const std::string& name : db_->ListTables()) {
    if (DB::IsSystemTableName(name)) continue;
    std::shared_ptr<Table> table = db_->GetTable(name);
    if (!table) continue;
    Target t;
    t.name = name;
    t.schema = table->schema();
    t.ttl = table->ttl();
    t.metas = table->DiskTablets();
    targets.push_back(std::move(t));
  }
  for (const Target& t : targets) {
    std::shared_ptr<Table> table = db_->GetTable(t.name);
    if (!table) return Status::Aborted("table dropped mid-ship");
    for (const TabletMeta& m : t.metas) {
      bool peer_has = false;
      {
        std::lock_guard<std::mutex> plock(mu_);
        for (const TabletMeta& pm : peer_files_[t.name]) {
          if (SameRef(pm, m)) {
            peer_has = true;
            break;
          }
        }
      }
      if (peer_has) continue;
      TabletMeta meta;
      std::string bytes;
      LT_RETURN_IF_ERROR(table->ExportTablet(m.filename, &meta, &bytes));
      std::string ship;
      header(&ship);
      PutLengthPrefixedSlice(&ship, t.name);
      t.schema->EncodeTo(&ship);
      PutVarint64(&ship, static_cast<uint64_t>(t.ttl));
      EncodeTabletMeta(&ship, meta);
      PutFixed32(&ship,
                 crc32c::Mask(crc32c::Value(bytes.data(), bytes.size())));
      ship += bytes;
      MsgType ship_rt;
      std::string ship_rb;
      s = peer->Call(MsgType::kShipTablet, ship, &ship_rt, &ship_rb);
      if (!s.ok()) {
        std::lock_guard<std::mutex> plock(mu_);
        return drop_peer(s);
      }
      if (ship_rt != MsgType::kOk) {
        return Status::Aborted("peer rejected tablet " + m.filename);
      }
    }
  }

  // Step 4: set-sync — every ship landed, so the snapshot is now a subset
  // of the peer's disk; pruning extras and advancing the floor is safe.
  lock.lock();
  if (!check_still_primary()) return Status::Aborted("role changed");
  const uint64_t new_floor = std::min(cover, peer_acked_);
  std::string sync;
  header(&sync);
  PutVarint64(&sync, my_stream);
  PutVarint64(&sync, new_floor);
  PutVarint32(&sync, static_cast<uint32_t>(targets.size()));
  for (const Target& t : targets) {
    PutLengthPrefixedSlice(&sync, t.name);
    PutVarint32(&sync, static_cast<uint32_t>(t.metas.size()));
    for (const TabletMeta& m : t.metas) EncodeTabletRef(&sync, m);
  }
  lock.unlock();

  s = peer->Call(MsgType::kTabletSetSync, sync, &rt, &rb);
  lock.lock();
  if (!s.ok()) return drop_peer(s);
  if (rt != MsgType::kRedoAck) {
    return Status::Aborted("peer rejected set-sync");
  }
  if (!check_still_primary()) return Status::Aborted("role changed");
  Slice in(rb);
  uint64_t ack;
  uint32_t ntables;
  if (!GetVarint64(&in, &ack) || !GetVarint32(&in, &ntables) ||
      ntables > 1u << 20) {
    return drop_peer(Status::Corruption("bad set-sync reply"));
  }
  std::map<std::string, std::vector<TabletMeta>> fresh;
  for (uint32_t t = 0; t < ntables; t++) {
    Slice name_s;
    uint32_t nfiles;
    if (!GetLengthPrefixedSlice(&in, &name_s) ||
        !GetVarint32(&in, &nfiles) || nfiles > 1u << 20) {
      return drop_peer(Status::Corruption("bad set-sync reply"));
    }
    std::vector<TabletMeta>& files = fresh[name_s.ToString()];
    files.reserve(nfiles);
    for (uint32_t f = 0; f < nfiles; f++) {
      TabletMeta m;
      if (!DecodeTabletRef(&in, &m)) {
        return drop_peer(Status::Corruption("bad set-sync reply"));
      }
      files.push_back(std::move(m));
    }
  }
  // The reply is the peer's real disk state — adopt it wholesale so a
  // secondary restart (losing nothing durable, but possibly installs we
  // recorded optimistically) heals within one round.
  peer_files_ = std::move(fresh);
  peer_acked_ = std::max(peer_acked_, ack);
  if (new_floor > redo_floor_) {
    redo_floor_ = new_floor;
    while (!redo_.empty() && redo_.front().seq <= redo_floor_) {
      redo_.pop_front();
    }
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace lt
