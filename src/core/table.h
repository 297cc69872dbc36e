// Table: one LittleTable table — the union of its in-memory filling tablets,
// sealed tablets awaiting flush, and on-disk tablets (§3.2).
//
// Consistency and durability model (§2.3.4, §3.1):
//   - Inserts are append-only; rows are never updated, only aged out by TTL.
//   - Primary keys are unique, enforced at insert with the §3.4.4 fast
//     paths.
//   - A query that starts after an insert completes sees all of the
//     insert's rows; a query concurrent with an insert may see some, all,
//     or none of them.
//   - There is no write-ahead log. The only crash guarantee is prefix
//     durability: if a row survives a crash, every row inserted into the
//     same table before it survives too. With multiple filling tablets
//     (§3.4.3) this is maintained by the flush dependency graph: inserting
//     into tablet t' right after tablet t adds the edge "t must flush
//     before t'", and a flush persists the whole transitive closure in one
//     atomic descriptor update.
#ifndef LITTLETABLE_CORE_TABLE_H_
#define LITTLETABLE_CORE_TABLE_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/cursor.h"
#include "core/descriptor.h"
#include "core/memtablet.h"
#include "core/options.h"
#include "core/query_trace.h"
#include "core/row_codec.h"
#include "core/stats.h"
#include "core/tablet_reader.h"
#include "env/env.h"
#include "util/clock.h"

namespace lt {

class Table;

/// A pull-based query: the same snapshot visibility and TTL/limit semantics
/// as Table::Query, pulled on demand, so the caller decides how much to
/// materialize and can abandon the scan at any point. Created by
/// Table::NewQueryStream; the Table must outlive the stream. Not
/// thread-safe — one thread at a time, though different calls may come
/// from different worker threads.
///
/// NextChunk is the serving path: the server's streaming read path pulls
/// one wire chunk of encoded rows per call, copied from the cursors a run
/// at a time. Next is the one-row reference: it positions the stream on a
/// matching row, read in place (see cursor.h) with AppendEncoded or
/// MaterializeRow. Table::Query materializes through Next, and
/// cursor_diff_test checks every NextChunk against a Next loop.
class QueryStream {
 public:
  ~QueryStream();
  QueryStream(const QueryStream&) = delete;
  QueryStream& operator=(const QueryStream&) = delete;

  /// Moves to the next matching row. Exactly one of three outcomes:
  ///   *have_row = true            — the stream is on a matching row; read
  ///                                 it with AppendEncoded/MaterializeRow
  ///                                 before calling Next again;
  ///   *exhausted = true           — the scan is complete (no more rows, or
  ///                                 the row limit was hit — see
  ///                                 more_available());
  ///   both false                  — `max_scan_rows` rows were scanned
  ///                                 without a match (all TTL- or
  ///                                 bounds-filtered); call again. This is
  ///                                 the cooperative-yield hook: it bounds
  ///                                 the work per call even when the scan is
  ///                                 filtering everything out.
  /// max_scan_rows = 0 means no scan budget (never yields without a row).
  Status Next(uint64_t max_scan_rows, bool* have_row, bool* exhausted);

  /// Appends one streamed chunk's rows to `dst` — their encodings under
  /// schema(), straight from the cursors a run at a time — and reports
  /// how many (`*rows`) and whether the scan is complete (`*final`; see
  /// more_available()). The chunk ends after the row that makes it
  /// `max_rows` rows or brings it to `target_bytes` bytes; after a row,
  /// once `scan_cap` rows were scanned since the chunk began; and, with no
  /// row to end on, when the rows skipped by the ts filter since the last
  /// appended row use up what the scan cap had left (the cooperative
  /// yield: *rows may then be 0). These are the rules of a Next loop
  /// called with max_scan_rows = scan_cap minus the rows scanned so far in
  /// the chunk. `scan_cap` must be > 0.
  Status NextChunk(size_t max_rows, size_t target_bytes, uint64_t scan_cap,
                   std::string* dst, uint32_t* rows, bool* final);

  /// The row the last Next stopped on (it reported *have_row = true):
  /// appends its encoding under schema() — the EncodeRow bytes — or builds
  /// it as Values.
  void AppendEncoded(std::string* dst) const { merged_->AppendEncoded(dst); }
  void MaterializeRow(Row* out) const { merged_->MaterializeRow(out); }

  /// True once the scan stopped at the row limit with rows remaining.
  bool more_available() const { return more_available_; }
  /// Rows decoded so far (the Figure 9 numerator), live during the scan.
  uint64_t rows_scanned() const { return scanned_.load(); }
  uint64_t rows_returned() const { return returned_; }
  const Schema* schema() const { return schema_.get(); }

  /// Records the query's stats (rows scanned/returned counters, latency
  /// histogram, slow-query log) exactly once. Idempotent; the destructor
  /// calls it, so an abandoned (cancelled) stream still shows up in the
  /// table's accounting.
  void Finish();

 private:
  friend class Table;
  QueryStream() = default;

  Table* table_ = nullptr;
  std::shared_ptr<const Schema> schema_;
  QueryBounds bounds_;  // TTL-tightened.
  uint64_t limit_ = 0;
  // Incremented by every cursor as it decodes; must outlive merged_.
  std::atomic<uint64_t> scanned_{0};
  // Disk cursors inside merged_ reference these readers; pin them.
  std::vector<std::shared_ptr<TabletReader>> readers_;
  std::unique_ptr<Cursor> merged_;
  QueryTrace* trace_ = nullptr;  // Points at local_trace_ or a caller's.
  QueryTrace local_trace_;
  Timestamp op_start_ = 0;
  uint64_t returned_ = 0;
  bool on_row_ = false;  // merged_ rests on a row already returned.
  bool more_available_ = false;
  bool done_ = false;
  // Starts true so a stream abandoned mid-construction records nothing;
  // NewQueryStream arms it on success.
  bool finished_ = true;
};

class Table {
 public:
  /// Creates a new table in `dir` (created if missing) and persists its
  /// initial descriptor.
  static Status Create(Env* env, std::shared_ptr<Clock> clock,
                       const std::string& dir, const std::string& name,
                       const Schema& schema, const TableOptions& options,
                       std::unique_ptr<Table>* out);

  /// Opens an existing table from its descriptor, removing any orphaned
  /// tablet files left by a crash mid-flush.
  static Status Open(Env* env, std::shared_ptr<Clock> clock,
                     const std::string& dir, const TableOptions& options,
                     std::unique_ptr<Table>* out);

  const std::string& name() const { return name_; }
  std::shared_ptr<const Schema> schema() const;
  Timestamp ttl() const;

  /// Inserts a batch of rows (each matching the current schema, timestamps
  /// already assigned). Rejects the whole batch atomically if any key
  /// duplicates an existing row or another row in the batch.
  ///
  /// Concurrent callers are group-committed: batches queued while another
  /// insert holds the critical section are coalesced into one insert_mu_
  /// acquisition and one memtablet/flush-accounting pass, with each batch
  /// keeping its own all-or-nothing status (a rejected batch never blocks
  /// the others in its group). Equivalent to some serial order of the
  /// batches — queue order — so durable state matches serial execution.
  Status InsertBatch(const std::vector<Row>& rows);

  /// The same insert, with the rows given as their encodings under
  /// schema version rows.schema_version (see EncodedRows): the write path
  /// InsertBatch encodes into, and the server's. The rows must be
  /// canonical encodings under the current schema (ParseRow); a batch
  /// under another schema version is rejected whole.
  Status InsertEncoded(const EncodedRows& rows);

  /// Executes a 2-D bounded scan (§3.1). TTL-expired rows are filtered; the
  /// row limit is min(bounds.limit, server cap), and more_available is set
  /// if the scan stopped at the limit with rows remaining. `trace`
  /// (optional) accumulates this query's execution trace — pruning, block
  /// reads, cache hits, elapsed time; the same trace also feeds the
  /// slow-query log when TableOptions::slow_query_micros is set.
  Status Query(const QueryBounds& bounds, QueryResult* result,
               QueryTrace* trace = nullptr);

  /// Opens a pull-based stream over the same snapshot Query would read
  /// (incremental execution for the server's streaming path). `trace`, when
  /// non-null, must outlive the stream; the table always must. The stream
  /// pins tablet readers and memtablet snapshots for its lifetime, so
  /// callers should Finish and drop it promptly.
  Status NewQueryStream(const QueryBounds& bounds,
                        std::unique_ptr<QueryStream>* out,
                        QueryTrace* trace = nullptr);

  /// Finds the row with the largest timestamp whose key begins with
  /// `prefix` (§3.4.5), walking tablet groups backwards through time and
  /// skipping tablets via Bloom filters. Sets *found=false if none.
  Status LatestRowForPrefix(const Key& prefix, Row* row, bool* found);

  /// Seals and flushes every in-memory tablet.
  Status FlushAll();

  /// The §4.1.2 extension: flushes every in-memory tablet holding any row
  /// with timestamp <= `ts` (plus dependency closures), so aggregators can
  /// know their source data is durable without the 20-minute heuristic.
  Status FlushThrough(Timestamp ts);

  /// One maintenance pass: age-based seals, the flush queue, at most one
  /// tablet merge, and TTL reclamation. The DB background thread calls this
  /// periodically; deterministic tests call it directly.
  Status MaintainNow();

  /// Marks the table as shutting down: maintenance passes become no-ops
  /// (no new flush loops, merges, or TTL scans start) and any pending
  /// flush/merge retry-backoff window is cancelled so the close-time
  /// FlushAll runs immediately instead of waiting out the backoff. Explicit
  /// flushes (FlushAll/FlushThrough) still work — DB::Close relies on that.
  void BeginShutdown();

  /// True if a maintenance pass would do work right now.
  bool HasMaintenanceWork();

  // Schema evolution (§3.5). Each flushes in-memory data first; existing
  // on-disk tablets are never rewritten.
  Status AppendColumn(const Column& column);
  Status WidenColumn(const std::string& column_name);
  Status SetTtl(Timestamp ttl);

  // Replication hooks (src/cluster). Flushed tablets are immutable files,
  // so primary→secondary replication is whole-tablet shipping: the primary
  // exports raw file bytes, the secondary installs them atomically through
  // the same descriptor machinery a flush commits through.

  /// Reads one on-disk tablet whole for shipping: its descriptor entry
  /// plus the raw file bytes. NotFound if the tablet is no longer in the
  /// descriptor (e.g. merged away between listing and shipping).
  Status ExportTablet(const std::string& filename, TabletMeta* meta,
                      std::string* bytes);

  /// Installs a shipped tablet file atomically (tmp + sync + rename, then
  /// one descriptor update), validating the bytes by loading them as a
  /// tablet first. Idempotent: a tablet already installed with identical
  /// meta (filename, file_bytes, row_count) returns OK without touching
  /// disk; a same-named tablet with different meta is replaced (a
  /// divergent-history rejoin). A crash mid-install leaves at worst an
  /// orphan file, which Open removes.
  Status InstallTablet(const TabletMeta& meta, const Slice& bytes);

  /// Drops every on-disk tablet NOT in `keep` (matched by filename +
  /// file_bytes + row_count triple) in one descriptor update. The
  /// secondary applies the primary's authoritative tablet set with this,
  /// so tablets merged away on the primary are pruned here too.
  Status RetainOnlyTablets(const std::vector<TabletMeta>& keep);

  /// Discards all in-memory rows (filling and sealed tablets) without
  /// flushing. Demotion hook: a node rejoining as secondary must drop
  /// unflushed state that may diverge from the new primary's history,
  /// keeping its on-disk prefix as the replication starting point.
  void DiscardMem();

  TableStats& stats() { return stats_; }

  // Introspection (tests and benchmarks).
  /// InsertBatch calls currently queued or committing (the group-commit
  /// writer queue, leader included). Lets tests park a leader and verify
  /// followers pile up behind it before releasing the group.
  size_t PendingInserts() const {
    std::lock_guard<std::mutex> lock(writers_mu_);
    return writers_.size();
  }
  size_t NumDiskTablets() const;
  size_t NumMemTablets() const;
  uint64_t DiskBytes() const;
  uint64_t ApproxMemBytes() const;
  std::vector<TabletMeta> DiskTablets() const;
  const std::string& dir() const { return dir_; }

  /// Deletes every file belonging to the table in `dir`.
  static Status Destroy(Env* env, const std::string& dir);

 private:
  friend class QueryStream;  // Finish() records into stats_/opts_.

  Table(Env* env, std::shared_ptr<Clock> clock, std::string dir,
        TableOptions options);

  std::string DescriptorPath() const { return dir_ + "/DESC"; }
  std::string TabletPath(const std::string& fname) const {
    return dir_ + "/" + fname;
  }

  Timestamp ExpiryCutoffLocked(Timestamp now) const;

  /// One readable source: an on-disk tablet, or a memtablet's rows (table.cc).
  struct Source;

  /// The read view (§3.1), the one place that decides what a reader sees:
  /// the on-disk tablets and the memtablets — filling, sealed or being
  /// flushed — that hold rows in `range`'s timespan. When `disk` is set,
  /// appends each such tablet to it as a source (in tablets_ order; `trace`,
  /// optional, counts the tablets considered and pruned by time). Then
  /// calls `mem(const std::shared_ptr<MemTablet>&)` for each such
  /// memtablet (read its watermark here, under mu_); a false return
  /// ends the visit. Does no I/O. mu_ held.
  template <typename MemFn>
  Status VisitReadViewLocked(const QueryBounds& range, QueryTrace* trace,
                             MemFn&& mem, std::vector<Source>* disk) const;

  /// Loads a disk source's footer. A TabletReader::Unusable tablet is
  /// quarantined and the source dropped (reader reset) with OK, so the rest
  /// of the table keeps serving; any other error propagates. mu_ not held.
  Status LoadSource(Source* src);

  /// Merges `sources` in `bounds.direction`: memtablet cursors (moved out)
  /// as they are, disk tablets through NewCursor once LoadSource keeps
  /// them — skipping, when `bloom_prefix` is set, those whose Bloom filter
  /// rules it out. Every disk row decoded counts into `*scanned` (memtablet
  /// cursors count into the counter they were opened with).
  Status MergeSources(std::span<Source> sources, const QueryBounds& bounds,
                      const Schema* schema, const Key* bloom_prefix,
                      std::atomic<uint64_t>* scanned, QueryTrace* trace,
                      std::unique_ptr<Cursor>* out);

  /// What a commit group's uniqueness checks read (table.cc).
  struct UniqueView;

  /// Uniqueness check (§3.4.4) of one row's full key — `key`, one cell per
  /// key column — against the table as `view` sees it. May read from disk
  /// (slow path).
  Status CheckUnique(const Schema& schema, const KeyCell* key,
                     UniqueView* view);

  /// One queued insert call awaiting (or leading) a commit group.
  struct InsertWaiter {
    explicit InsertWaiter(const EncodedRows* r) : rows(r) {}
    const EncodedRows* rows;
    size_t first_row = 0;  // Index of its first row within the group.
    Status status;
    bool done = false;  // Guarded by writers_mu_.
    std::condition_variable cv;
  };

  /// Executes one commit group under insert_mu_: per-batch validation and
  /// uniqueness (cross-batch duplicates within the group included), one
  /// mu_ application pass for every accepted batch, one backpressure flush
  /// pass. Sets each waiter's status.
  void RunInsertGroup(const std::vector<InsertWaiter*>& group);

  /// Seals `mt` and moves it from filling_ to the flush queue. mu_ held.
  /// Takes the pointer by value: callers often pass the shared_ptr living
  /// inside the filling_ map node this function erases.
  void SealLocked(std::shared_ptr<MemTablet> mt);

  /// Flushes the given root tablets plus their dependency closures as one
  /// atomic descriptor update.
  Status FlushSet(std::vector<uint64_t> root_ids);

  /// Performs at most one merge per call (§3.4.1).
  Status MaybeMerge(Timestamp now);

  /// Drops tablets whose rows have all expired (§3.3).
  Status ReclaimExpired(Timestamp now);

  /// Removes an unreadable tablet from the table so the rest keeps serving:
  /// renames its file to `<name>.corrupt` (kept for post-mortems), drops it
  /// from the descriptor and reader cache, and logs `why`. A no-op if the
  /// tablet already left the table. mu_ held.
  void QuarantineTabletLocked(const std::string& fname, const Status& why);

  Status SaveDescriptorLocked();
  /// Saves a descriptor naming `tablets` instead of tablets_, so flush and
  /// merge can commit durably before mutating in-memory state. mu_ held.
  Status SaveDescriptorWithLocked(const std::vector<TabletMeta>& tablets);

  /// Hard insert-rejection threshold while flushes are failing. mu_ held.
  size_t HardSealedCapLocked() const {
    return opts_.max_sealed_tablets_hard > 0
               ? opts_.max_sealed_tablets_hard
               : 2 * opts_.max_unflushed_tablets;
  }
  /// Records a flush/merge failure: bumps the counter and advances the
  /// exponential retry backoff. mu_ held.
  void RecordFlushFailureLocked(Timestamp now);
  void RecordMergeFailureLocked(Timestamp now);

  Env* const env_;
  std::shared_ptr<Clock> clock_;
  const std::string dir_;
  TableOptions opts_;
  std::string name_;

  mutable std::mutex mu_;
  std::shared_ptr<const Schema> schema_;
  Timestamp ttl_ = 0;
  uint64_t next_file_seq_ = 1;
  std::vector<TabletMeta> tablets_;  // Sorted by (min_ts, max_ts, name).
  std::map<std::string, std::shared_ptr<TabletReader>> readers_;

  std::map<Timestamp, std::shared_ptr<MemTablet>> filling_;  // By period start.
  std::deque<std::shared_ptr<MemTablet>> sealed_;
  // The memtablets the running flush took from filling_/sealed_ (flush_mu_
  // and mu_ to change). Readers keep seeing them here until the critical
  // section that installs their tablets, or requeues them, removes them.
  std::vector<std::shared_ptr<MemTablet>> flushing_;
  // Retry state after flush/merge failures (guarded by mu_): attempts are
  // skipped until the backoff deadline passes; consecutive failures double
  // the delay up to flush_retry_max_backoff.
  Timestamp flush_backoff_until_ = 0;
  uint32_t flush_failure_streak_ = 0;
  Timestamp merge_backoff_until_ = 0;
  uint32_t merge_failure_streak_ = 0;
  bool closing_ = false;  // BeginShutdown called; maintenance stands down.
  // must_flush_first_[t'] = tablets that must flush before (or with) t'.
  std::map<uint64_t, std::set<uint64_t>> must_flush_first_;
  uint64_t last_insert_tablet_ = 0;
  uint64_t next_memtablet_id_ = 1;
  bool has_rows_ = false;
  Timestamp max_row_ts_ = 0;  // Valid when has_rows_.

  std::mutex insert_mu_;  // Serializes inserts; queries take only mu_.
  std::mutex flush_mu_;   // Serializes flush I/O.
  std::mutex merge_mu_;   // One merge at a time.

  // Group-commit writer queue (LevelDB-style): the front waiter leads,
  // claiming a bounded prefix of the queue as its group and running it
  // under insert_mu_; followers sleep on their own cv until the leader
  // hands back their status or the lead role.
  mutable std::mutex writers_mu_;
  std::deque<InsertWaiter*> writers_;

  TableStats stats_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_TABLE_H_
