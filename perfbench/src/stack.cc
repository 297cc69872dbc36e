#include "stack.h"

namespace perfbench {

Stack::~Stack() {
  if (server_) server_->Stop();
  if (db_) db_->Abandon();
}

lt::Status Stack::Open(const StackOptions& options) {
  clock_ = std::make_shared<lt::SimClock>(options.start_time);
  lt::DbOptions db_options;
  db_options.block_cache_bytes = options.block_cache_bytes;
  db_options.table_defaults.flush_bytes = options.flush_bytes;
  // Flushes and merges run when the workload says so (after a fixed number
  // of acknowledged ops), never on a wall-clock timer: the work done per run
  // then depends only on the op stream.
  db_options.background_maintenance = false;
  LT_RETURN_IF_ERROR(lt::DB::Open(&disk_, clock_, "/db", db_options, &db_));
  server_ = std::make_unique<lt::LittleTableServer>(db_.get(), 0);
  return server_->Start();
}

lt::Status Stack::Connect(std::unique_ptr<lt::Client>* out) const {
  lt::ClientOptions options;
  options.max_retries = 0;
  return lt::Client::Connect("127.0.0.1", server_->port(), options, out);
}

}  // namespace perfbench
