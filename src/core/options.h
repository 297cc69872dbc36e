// Tuning knobs for tables and the database. Defaults are the paper's
// production values: 16 MB flushes, 10-minute maximum in-memory tablet age,
// 64 kB blocks, 128 MB merged-tablet cap, 90-second merge delay. The
// tablet format is not a knob: every flush and merge writes format 2
// (tablet_writer.h).
#ifndef LITTLETABLE_CORE_OPTIONS_H_
#define LITTLETABLE_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/merge_policy.h"
#include "util/cache.h"
#include "util/clock.h"
#include "util/logger.h"

namespace lt {

struct TableOptions {
  /// Seal an in-memory tablet once it holds this many bytes (§3.3: 16 MB
  /// sustains ~95% of a spinning disk's peak write rate).
  uint64_t flush_bytes = 16ull << 20;

  /// Seal an in-memory tablet this long after its first row (§3.4.1: bounds
  /// data lost in a crash to 10 minutes).
  Timestamp max_memtablet_age = 10 * kMicrosPerMinute;

  /// Uncompressed row bytes per on-disk block.
  size_t block_bytes = 64 * 1024;

  /// Bloom filter density for the §3.4.5 extension; <= 0 disables filters.
  int bloom_bits_per_key = 10;

  /// Rows with timestamps older than now - ttl are aged out (§3.1);
  /// 0 retains forever.
  Timestamp ttl = 0;

  /// Server-enforced cap on rows returned per query; results that hit it
  /// set more_available, and the client re-submits from the last key
  /// (§3.5).
  uint64_t server_row_limit = 64 * 1024;

  /// Backpressure: inserts stall once this many sealed tablets await
  /// flushing (the 100-tablet limit of the §5.1.3 experiment).
  size_t max_unflushed_tablets = 100;

  /// When a flush or merge fails (ENOSPC, injected fault), the failed
  /// tablets stay queued and retries back off exponentially from this
  /// delay up to the cap, so a sick disk isn't hammered while the table
  /// keeps serving reads and absorbing inserts in memory.
  Timestamp flush_retry_backoff = 1 * kMicrosPerSecond;
  Timestamp flush_retry_max_backoff = 60 * kMicrosPerSecond;

  /// Hard cap on sealed tablets queued while flushes are failing: past it,
  /// inserts are rejected with Unavailable instead of growing memory
  /// without bound. 0 means 2 * max_unflushed_tablets.
  size_t max_sealed_tablets_hard = 0;

  /// Eagerly load (and checksum-verify) every tablet footer at open,
  /// quarantining unreadable tablets immediately. Off by default: footers
  /// load lazily on first use (§3.5), so opening a table with hundreds of
  /// tablets stays cheap and corrupt tablets are quarantined when a query
  /// or insert first touches them.
  bool verify_open = false;

  /// Decompressed-block cache consulted by every tablet block read. Null
  /// means no cache. DB::Open and DB::CreateTable inject the DB-wide cache
  /// here (one cache across all tables) unless the caller supplied their
  /// own; a standalone Table that wants a cache passes one here.
  std::shared_ptr<Cache> block_cache;

  /// Structured logger for table events (quarantine, descriptor failures,
  /// slow queries). Null means Logger::Default() (stderr). DB::Open and
  /// DB::CreateTable inject the DB-wide logger unless the caller supplied
  /// their own.
  std::shared_ptr<Logger> logger;

  /// Queries whose end-to-end latency meets or exceeds this many
  /// microseconds emit one structured `slow_query` log line with their
  /// QueryTrace (rows scanned/returned, tablets pruned, blocks read).
  /// 0 disables the slow-query log.
  int64_t slow_query_micros = 0;

  MergePolicyOptions merge;
};

struct DbOptions {
  TableOptions table_defaults;
  /// Capacity of the DB-wide decompressed-block cache shared by every
  /// table (0 = no cache). Hot blocks — dashboards re-reading the newest
  /// tablet (§4) — are served without the per-block seek, CRC check, and
  /// decompress that §3.5's accounting charges on every access.
  uint64_t block_cache_bytes = 64ull << 20;
  /// Run flush/merge/TTL maintenance on a background thread. Tests and
  /// deterministic benchmarks disable this and call MaintainNow().
  bool background_maintenance = true;
  /// DB-wide structured logger, injected into every table that does not set
  /// its own. Null means Logger::Default() (stderr).
  std::shared_ptr<Logger> logger;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_OPTIONS_H_
