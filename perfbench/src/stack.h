// The system under test, assembled the way a deployment runs it: a DB over
// MemEnv wrapped in the SimDiskEnv spinning-disk model, a SimClock the
// workload generator advances with its op stream, and a LittleTableServer
// on real TCP loopback. Clients talk to it only through lt::Client.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>
#include <mutex>
#include <string>

#include "core/db.h"
#include "env/mem_env.h"
#include "env/sim_disk_env.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

constexpr const char* kTable = "usage";

struct StackOptions {
  uint64_t block_cache_bytes = 64ull << 20;
  uint64_t flush_bytes = 16ull << 20;
  lt::Timestamp start_time = 0;
};

class Stack {
 public:
  Stack() : disk_(&mem_, lt::SimDiskOptions()) {}
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  /// Stops the server and drops the DB without the close-time flush: the
  /// benchmark never reopens it, so that work would only slow teardown.
  ~Stack();

  lt::Status Open(const StackOptions& options);

  /// A client with retries off, so every transport error and busy reply
  /// surfaces as a failed op instead of being retried away.
  lt::Status Connect(std::unique_ptr<lt::Client>* out) const;

  /// Moves the simulated clock forward to `t` (never backwards).
  void AdvanceTo(lt::Timestamp t) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    if (t > clock_->Now()) clock_->Set(t);
  }

  lt::MemEnv* mem() { return &mem_; }
  lt::SimDiskEnv* disk() { return &disk_; }
  lt::SimClock* clock() { return clock_.get(); }
  std::shared_ptr<lt::Clock> shared_clock() { return clock_; }
  lt::DB* db() { return db_.get(); }
  lt::LittleTableServer* server() { return server_.get(); }
  /// The benchmark table; null until the workload creates it.
  std::shared_ptr<lt::Table> table() { return db_->GetTable(kTable); }

 private:
  lt::MemEnv mem_;
  lt::SimDiskEnv disk_;
  std::shared_ptr<lt::SimClock> clock_;
  std::mutex clock_mu_;
  std::unique_ptr<lt::DB> db_;
  std::unique_ptr<lt::LittleTableServer> server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
