// SimDiskEnv: a spinning-disk cost model wrapped around any Env.
//
// The paper's evaluation (§5.1) runs on a 7,200 RPM drive: ~120 MB/s
// sequential throughput, ~8 ms combined seek + rotational latency, kernel
// readahead of 128 kB (default) or 1 MB, and a 64 MB on-drive cache. The
// experiments that depend on the medium — query throughput vs. tablet count
// (Figure 5) and first-row latency vs. tablet count (Figure 6) — measure how
// the engine's access pattern amortizes seeks, not the medium itself.
//
// SimDiskEnv reproduces those experiments deterministically on any hardware
// by charging *simulated* time to every I/O:
//   - each file occupies one contiguous extent of a virtual disk (the
//     paper notes ext4 stores tablets ≤1 GB in a single extent);
//   - reads happen in readahead-sized chunks; a chunk that is not in the
//     simulated page cache costs a seek (if the head has to move) plus
//     transfer time at the sequential rate;
//   - opening a file charges one seek for the inode unless cached (§3.5's
//     "three seeks to read a tablet's footer" accounting);
//   - writes charge a seek when the head moves between files plus transfer.
//
// Accumulated simulated time is read with SimElapsed(); ClearCaches() models
// `echo 3 > drop_caches` plus the drive-cache flush the paper performs
// between benchmark runs.
#ifndef LITTLETABLE_ENV_SIM_DISK_ENV_H_
#define LITTLETABLE_ENV_SIM_DISK_ENV_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "env/env.h"

namespace lt {

struct SimDiskOptions {
  /// Combined average seek + rotational latency.
  int64_t seek_micros = 8000;
  /// Sequential transfer rates.
  int64_t read_bytes_per_sec = 120 * 1000 * 1000;
  int64_t write_bytes_per_sec = 120 * 1000 * 1000;
  /// Kernel readahead granularity: reads are rounded to this unit.
  uint64_t readahead_bytes = 128 * 1024;
  /// Simulated OS page cache capacity (0 disables caching entirely).
  uint64_t page_cache_bytes = 4ull << 30;
  /// Drive-internal cache modeled as sequential prefetch: a file read
  /// sequentially grows a prefetch window (doubling per sequential miss) up
  /// to drive_cache_bytes divided by the number of concurrently read files.
  /// The paper observes exactly this effect: its 64 MB drive cache lifts
  /// multi-tablet scan throughput above the naive seek-amortization floor
  /// (§5.1.5). 0 disables the model.
  uint64_t drive_cache_bytes = 64ull << 20;
};

class SimDiskEnv final : public Env {
 public:
  /// Does not take ownership of `base`, which stores the actual bytes
  /// (typically a MemEnv so benchmarks are self-contained).
  SimDiskEnv(Env* base, SimDiskOptions options);

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RemoveFile(const std::string& fname) override;
  Status RenameFile(const std::string& src, const std::string& dst) override;
  Status CreateDirIfMissing(const std::string& dirname) override;
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override;

  /// Total simulated I/O time so far, in microseconds.
  int64_t SimElapsedMicros() const;
  void ResetSimTime();

  /// Drops the simulated page cache and inode cache.
  void ClearCaches();

  /// Changes the readahead unit (the paper compares 128 kB vs 1 MB).
  void SetReadahead(uint64_t bytes);

  /// Counters for assertions in tests.
  int64_t seek_count() const;
  int64_t bytes_read() const;
  int64_t bytes_written() const;

  // Deterministic fault injection at the simulated-disk layer: the Nth read
  // (or write) from now fails with an IOError before reaching the base env
  // and before any sim time is charged; n <= 0 clears the fault.
  void FailNthRead(int n) { fail_read_countdown_.store(n); }
  void FailNthWrite(int n) { fail_write_countdown_.store(n); }

  // Disk-full injection: after `bytes` more bytes are appended through this
  // env, every further append fails with IOError("no space left on device")
  // until ClearDiskFull() — modeling ENOSPC on a filling disk.
  void SetDiskFullAfter(int64_t bytes) { disk_free_.store(bytes); }
  void ClearDiskFull() { disk_free_.store(-1); }

  /// Simulates pulling the plug: every file written through this env is
  /// truncated back to its last-synced length (files never synced at all
  /// disappear), and all simulated caches are dropped. Files the env never
  /// wrote are untouched. Reopen the table afterwards to exercise crash
  /// recovery.
  Status PowerCut();

 private:
  friend class SimSequentialFile;
  friend class SimRandomAccessFile;
  friend class SimWritableFile;

  struct Extent {
    uint64_t start = 0;
  };

  // All charging happens under mu_.
  void ChargeOpenLocked(const std::string& fname);
  void ChargeReadLocked(const std::string& fname, uint64_t offset, size_t n,
                        uint64_t file_size);
  void ChargeWriteLocked(const std::string& fname, uint64_t offset, size_t n);
  uint64_t ExtentStartLocked(const std::string& fname);
  void CacheInsertLocked(const std::string& fname, uint64_t chunk);
  bool CacheContainsLocked(const std::string& fname, uint64_t chunk);
  void CacheEraseFileLocked(const std::string& fname);
  bool ConsumeReadFault();
  bool ConsumeWriteFault();
  /// False once the disk-full budget is exhausted (the write must fail).
  bool ConsumeDiskSpace(size_t n);

  Env* const base_;
  SimDiskOptions opts_;

  mutable std::mutex mu_;
  int64_t sim_micros_ = 0;
  int64_t seeks_ = 0;
  int64_t bytes_read_ = 0;
  int64_t bytes_written_ = 0;
  uint64_t next_extent_ = 1 << 20;  // Leave a hole at address 0.
  int64_t head_ = -1;               // Disk head position; -1 = unknown.
  std::map<std::string, Extent> extents_;
  std::set<std::string> inode_cache_;
  // Page cache: key = fname + ':' + chunk index, LRU by byte budget.
  std::list<std::pair<std::string, uint64_t>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, uint64_t>>::iterator>
      cache_;
  // Sequential-prefetch state per file (drive-cache model).
  struct Streak {
    uint64_t next_chunk = 0;   // Expected next sequential chunk.
    uint64_t window = 0;       // Current prefetch window in chunks.
  };
  std::map<std::string, Streak> streaks_;
  // Files read recently, to divide the drive cache between streams.
  std::list<std::string> recent_files_;

  // Durability tracking for PowerCut(): bytes of each written file known to
  // have reached stable storage (advanced by Sync, moved by rename).
  std::map<std::string, uint64_t> synced_len_;

  std::atomic<int> fail_read_countdown_{0};   // 0 = no fault armed.
  std::atomic<int> fail_write_countdown_{0};
  std::atomic<int64_t> disk_free_{-1};        // -1 = unlimited space.
};

}  // namespace lt

#endif  // LITTLETABLE_ENV_SIM_DISK_ENV_H_
