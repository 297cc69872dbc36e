// Per-table operation counters. These drive the production-metrics figures:
// rows scanned vs. returned is the Figure 9 efficiency ratio, and the flush
// vs. merge byte counters give the §5.1.3 write-amplification factor.
#ifndef LITTLETABLE_CORE_STATS_H_
#define LITTLETABLE_CORE_STATS_H_

#include <atomic>
#include <cstdint>
#include <limits>

#include "util/histogram.h"

namespace lt {

struct TableStats {
  std::atomic<uint64_t> insert_batches{0};
  std::atomic<uint64_t> rows_inserted{0};
  // Group-commit critical sections. Each group coalesces one or more
  // concurrent InsertBatch calls into a single insert_mu_ acquisition, so
  // insert_batches / insert_groups is the coalescing factor (1.0 = no
  // concurrency, higher = amortized ingest).
  std::atomic<uint64_t> insert_groups{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> rows_returned{0};

  // Which uniqueness check (§3.4.4) admitted inserted rows.
  std::atomic<uint64_t> unique_by_newest_ts{0};
  std::atomic<uint64_t> unique_by_max_key{0};
  std::atomic<uint64_t> unique_by_point_query{0};
  std::atomic<uint64_t> duplicates_rejected{0};

  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> bytes_flushed{0};
  std::atomic<uint64_t> merges{0};
  std::atomic<uint64_t> tablets_merged{0};
  std::atomic<uint64_t> bytes_merge_written{0};
  std::atomic<uint64_t> tablets_expired{0};

  // Fault-recovery counters: flush/merge attempts that failed (the sealed
  // tablets stay queued; partial output was deleted), and flush attempts
  // made while retrying after a failure. A healthy table shows zeros; a
  // disk-full incident shows failures accumulating until space frees, then
  // one successful retry.
  std::atomic<uint64_t> flush_failures{0};
  std::atomic<uint64_t> flush_retries{0};
  std::atomic<uint64_t> merge_failures{0};

  // Tablets whose footer could not be read (corrupt or missing file) and
  // were renamed to `<name>.corrupt` and dropped from the descriptor so the
  // rest of the table keeps serving.
  std::atomic<uint64_t> tablets_quarantined{0};

  // §3.4.5 extension: tablets skipped by Bloom filters during
  // latest-row-for-prefix and uniqueness point queries.
  std::atomic<uint64_t> bloom_tablet_skips{0};
  std::atomic<uint64_t> bloom_tablet_probes{0};

  // Columnar (format 2) lazy materialization: chunks actually decoded vs.
  // chunks a projected scan skipped entirely. A projected 2-of-N query over
  // v2 tablets shows skipped >> decoded; a full scan shows skipped == 0.
  std::atomic<uint64_t> column_chunks_decoded{0};
  std::atomic<uint64_t> column_chunks_skipped{0};

  // Store-raw fallback accounting: payload bytes written raw because
  // lzmini would have expanded them, vs. bytes written compressed.
  std::atomic<uint64_t> block_bytes_raw{0};
  std::atomic<uint64_t> block_bytes_compressed{0};

  // Block reads served from / missed by the shared decompressed-block
  // cache (this table's share of the DB-wide cache traffic). Misses count
  // reads that went to the Env; a table running without a cache counts
  // every block read as a miss.
  std::atomic<uint64_t> block_cache_hits{0};
  std::atomic<uint64_t> block_cache_misses{0};

  // Latency distributions (microseconds; lock-free recording). insert/query
  // cover the full user-visible operation; flush/merge cover one maintenance
  // pass each; block_read covers a cache-miss disk read (seek + CRC +
  // decompress, the §3.5 per-access cost); cache_lookup covers the shared
  // cache probe alone.
  LatencyHistogram insert_micros;
  LatencyHistogram query_micros;
  LatencyHistogram flush_micros;
  LatencyHistogram merge_micros;
  LatencyHistogram block_read_micros;
  LatencyHistogram cache_lookup_micros;

  // Batches coalesced per group-commit critical section (a value
  // distribution, not a latency): p50 near 1 means little concurrency;
  // a heavy ingest fan-in shows the amortization directly.
  LatencyHistogram insert_group_size;

  /// Visits every exported counter as fn(name, value). This is THE
  /// canonical export list: kStatsV2 (net/server), Prometheus text,
  /// and the self-monitoring sampler (obs/) all walk it, so a counter added
  /// here automatically appears in every output — and the parity pin test
  /// walks it too, so an output that stops using the visitor fails loudly.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    auto v = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    fn("table.insert_batches", v(insert_batches));
    fn("table.insert_groups", v(insert_groups));
    fn("table.rows_inserted", v(rows_inserted));
    fn("table.queries", v(queries));
    fn("table.rows_scanned", v(rows_scanned));
    fn("table.rows_returned", v(rows_returned));
    fn("table.unique_by_newest_ts", v(unique_by_newest_ts));
    fn("table.unique_by_max_key", v(unique_by_max_key));
    fn("table.unique_by_point_query", v(unique_by_point_query));
    fn("table.duplicates_rejected", v(duplicates_rejected));
    fn("table.flushes", v(flushes));
    fn("table.flush_failures", v(flush_failures));
    fn("table.flush_retries", v(flush_retries));
    fn("table.merge_failures", v(merge_failures));
    fn("table.bytes_flushed", v(bytes_flushed));
    fn("table.merges", v(merges));
    fn("table.tablets_merged", v(tablets_merged));
    fn("table.bytes_merge_written", v(bytes_merge_written));
    fn("table.tablets_expired", v(tablets_expired));
    fn("table.tablets_quarantined", v(tablets_quarantined));
    fn("table.bloom_tablet_skips", v(bloom_tablet_skips));
    fn("table.bloom_tablet_probes", v(bloom_tablet_probes));
    fn("table.block_cache_hits", v(block_cache_hits));
    fn("table.block_cache_misses", v(block_cache_misses));
    fn("table.column_chunks_decoded", v(column_chunks_decoded));
    fn("table.column_chunks_skipped", v(column_chunks_skipped));
    fn("table.block_bytes_raw", v(block_bytes_raw));
    fn("table.block_bytes_compressed", v(block_bytes_compressed));
  }

  /// Visits every exported histogram as fn(name, hist). Same contract as
  /// ForEachCounter: this list IS the export surface.
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    fn("table.insert_micros", insert_micros);
    fn("table.query_micros", query_micros);
    fn("table.flush_micros", flush_micros);
    fn("table.merge_micros", merge_micros);
    fn("table.block_read_micros", block_read_micros);
    fn("table.cache_lookup_micros", cache_lookup_micros);
    fn("table.insert_group_size", insert_group_size);
  }

  /// Block-cache hit rate so far (0 when the table has read no blocks).
  double BlockCacheHitRate() const {
    uint64_t hits = block_cache_hits.load(std::memory_order_relaxed);
    uint64_t total = hits + block_cache_misses.load(std::memory_order_relaxed);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  /// Write amplification so far: total tablet bytes written / bytes flushed.
  /// A table that has written nothing reports 1.0 (every byte written once).
  /// If merges wrote bytes but no flush has been observed — e.g. the stats
  /// were reset, or the table was reopened with on-disk tablets and then
  /// merged — the ratio's denominator is unknown, so this reports +infinity
  /// rather than silently understating amplification as 0.
  double WriteAmplification() const {
    uint64_t flushed = bytes_flushed.load(std::memory_order_relaxed);
    uint64_t merged = bytes_merge_written.load(std::memory_order_relaxed);
    if (flushed == 0) {
      return merged == 0 ? 1.0 : std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(flushed + merged) /
           static_cast<double>(flushed);
  }
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_STATS_H_
