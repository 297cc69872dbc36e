#include "core/db.h"

#include <chrono>
#include <cstdio>

namespace lt {

namespace {

// Real time between background maintenance passes (flush, merge, TTL).
constexpr std::chrono::seconds kMaintenanceInterval{1};

}  // namespace

DB::DB(Env* env, std::shared_ptr<Clock> clock, std::string root,
       DbOptions options)
    : env_(env), clock_(std::move(clock)), root_(std::move(root)),
      options_(options) {
  if (options_.block_cache_bytes > 0) {
    block_cache_ = std::make_shared<Cache>(options_.block_cache_bytes);
  }
  logger_ = options_.logger ? options_.logger : Logger::Default();
}

DB::~DB() {
  Status s = Close();
  if (!s.ok()) {
    logger_->Error("flush_on_close_failed", {{"status", s}});
  }
}

bool DB::ValidTableName(const std::string& name) {
  if (name.empty() || name.size() > 200) return false;
  bool all_dots = true;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
    if (c != '.') all_dots = false;
  }
  // Names double as directory names; "." and ".." (and friends) would
  // escape or alias the database root.
  return !all_dots;
}

Status DB::Open(Env* env, std::shared_ptr<Clock> clock,
                const std::string& root, const DbOptions& options,
                std::unique_ptr<DB>* out) {
  LT_RETURN_IF_ERROR(env->CreateDirIfMissing(root));
  std::unique_ptr<DB> db(new DB(env, clock, root, options));

  std::vector<std::string> children;
  LT_RETURN_IF_ERROR(env->GetChildren(root, &children));
  for (const std::string& child : children) {
    const std::string dir = root + "/" + child;
    if (!env->FileExists(dir + "/DESC")) continue;  // Not a table directory.
    std::unique_ptr<Table> table;
    TableOptions topts = options.table_defaults;
    if (!topts.block_cache) topts.block_cache = db->block_cache_;
    if (!topts.logger) topts.logger = db->logger_;
    Status s = Table::Open(env, clock, dir, topts, &table);
    if (!s.ok()) {
      // One damaged table (unreadable descriptor) must not keep the whole
      // server down; skip it and serve the rest. Its files are left in
      // place for manual recovery.
      db->logger_->Error("table_open_failed_skipping",
                         {{"dir", dir}, {"status", s}});
      continue;
    }
    std::string name = table->name();
    db->tables_[name] = std::shared_ptr<Table>(table.release());
  }

  if (options.background_maintenance) {
    db->background_ = std::thread([raw = db.get()] { raw->BackgroundLoop(); });
  }
  *out = std::move(db);
  return Status::OK();
}

size_t DB::AddPreCloseHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  const size_t id = next_hook_id_++;
  pre_close_hooks_[id] = std::move(hook);
  return id;
}

void DB::RemovePreCloseHook(size_t id) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  pre_close_hooks_.erase(id);
}

void DB::RunPreCloseHooks() {
  // Take the hooks out under the lock, run them outside it: a hook (the
  // sampler's Stop) may call RemovePreCloseHook from its own teardown.
  std::map<size_t, std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    hooks.swap(pre_close_hooks_);
  }
  for (auto& [id, hook] : hooks) hook();
}

Status DB::Close() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (stopping_) return Status::OK();
    stopping_ = true;
  }
  // Ordered shutdown: external feeders (the metrics sampler) stop first,
  // so nothing inserts while tables flush and close below.
  RunPreCloseHooks();
  // Stand maintenance down and cancel retry backoffs BEFORE joining: an
  // in-flight background pass cuts itself short at the next table, and the
  // final flush below is not skipped by a pending backoff window.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, table] : tables_) table->BeginShutdown();
  }
  bg_cv_.notify_all();
  if (background_.joinable()) background_.join();
  // With maintenance stopped, persist whatever is still buffered; without
  // this, rows inserted since the last flush silently vanish on shutdown.
  return FlushAll();
}

void DB::Abandon() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  RunPreCloseHooks();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, table] : tables_) table->BeginShutdown();
  }
  bg_cv_.notify_all();
  if (background_.joinable()) background_.join();
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();  // No flush: buffered rows die with the "process".
}

void DB::BackgroundLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait_for(lock, kMaintenanceInterval, [this] { return stopping_; });
      if (stopping_) return;
    }
    MaintainNow();
  }
}

Status DB::CreateTable(const std::string& name, const Schema& schema,
                       const TableOptions* options) {
  if (!ValidTableName(name)) {
    return Status::InvalidArgument("invalid table name: " + name);
  }
  if (IsSystemTableName(name)) {
    // The "__sys" namespace is reserved for the self-monitoring subsystem;
    // a user table there could be spoofed as (or clobbered by) a system
    // table. Internal callers go through CreateSystemTable.
    return Status::InvalidArgument("table name is reserved (__sys*): " + name);
  }
  return CreateTableInternal(name, schema, options);
}

Status DB::CreateSystemTable(const std::string& name, const Schema& schema,
                             const TableOptions* options) {
  if (!ValidTableName(name) || !IsSystemTableName(name)) {
    return Status::InvalidArgument("invalid system table name: " + name);
  }
  return CreateTableInternal(name, schema, options);
}

Status DB::CreateTableInternal(const std::string& name, const Schema& schema,
                               const TableOptions* options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  TableOptions topts = options ? *options : options_.table_defaults;
  if (!topts.block_cache) topts.block_cache = block_cache_;
  if (!topts.logger) topts.logger = logger_;
  std::unique_ptr<Table> table;
  LT_RETURN_IF_ERROR(Table::Create(env_, clock_, TableDir(name), name, schema,
                                   topts, &table));
  tables_[name] = std::shared_ptr<Table>(table.release());
  return Status::OK();
}

Status DB::DropTable(const std::string& name) {
  std::shared_ptr<Table> table;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no such table: " + name);
    table = it->second;
    tables_.erase(it);
  }
  return Table::Destroy(env_, TableDir(name));
}

std::shared_ptr<Table> DB::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second;
}

std::vector<std::string> DB::ListTables() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status DB::FlushAll() {
  std::vector<std::shared_ptr<Table>> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, table] : tables_) tables.push_back(table);
  }
  for (const auto& table : tables) LT_RETURN_IF_ERROR(table->FlushAll());
  return Status::OK();
}

Status DB::MaintainNow() {
  std::vector<std::shared_ptr<Table>> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, table] : tables_) tables.push_back(table);
  }
  for (const auto& table : tables) LT_RETURN_IF_ERROR(table->MaintainNow());
  return Status::OK();
}

}  // namespace lt
