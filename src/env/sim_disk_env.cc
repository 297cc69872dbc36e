#include "env/sim_disk_env.h"

#include <algorithm>

namespace lt {
namespace {

// Virtual extent reserved per file; files never collide.
constexpr uint64_t kExtentBytes = 4ull << 30;

std::string CacheKey(const std::string& fname, uint64_t chunk) {
  return fname + ':' + std::to_string(chunk);
}

}  // namespace

class SimSequentialFile final : public SequentialFile {
 public:
  SimSequentialFile(SimDiskEnv* env, std::string fname,
                    std::unique_ptr<SequentialFile> base, uint64_t size)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)),
        size_(size) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (env_->ConsumeReadFault()) return Status::IOError("injected read fault");
    {
      std::lock_guard<std::mutex> lock(env_->mu_);
      env_->ChargeReadLocked(fname_, pos_, n, size_);
    }
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) pos_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return base_->Skip(n);
  }

 private:
  SimDiskEnv* env_;
  std::string fname_;
  std::unique_ptr<SequentialFile> base_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

class SimRandomAccessFile final : public RandomAccessFile {
 public:
  SimRandomAccessFile(SimDiskEnv* env, std::string fname,
                      std::unique_ptr<RandomAccessFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (env_->ConsumeReadFault()) return Status::IOError("injected read fault");
    uint64_t size = 0;
    Status s = base_->Size(&size);
    if (!s.ok()) return s;
    {
      std::lock_guard<std::mutex> lock(env_->mu_);
      env_->ChargeReadLocked(fname_, offset, n, size);
    }
    return base_->Read(offset, n, result, scratch);
  }

  Status Size(uint64_t* size) const override { return base_->Size(size); }

 private:
  SimDiskEnv* env_;
  std::string fname_;
  std::unique_ptr<RandomAccessFile> base_;
};

class SimWritableFile final : public WritableFile {
 public:
  SimWritableFile(SimDiskEnv* env, std::string fname,
                  std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    if (env_->ConsumeWriteFault()) {
      return Status::IOError("injected write fault");
    }
    if (!env_->ConsumeDiskSpace(data.size())) {
      return Status::IOError("no space left on device");
    }
    {
      std::lock_guard<std::mutex> lock(env_->mu_);
      env_->ChargeWriteLocked(fname_, pos_, data.size());
    }
    pos_ += data.size();
    return base_->Append(data);
  }

  Status Sync() override {
    LT_RETURN_IF_ERROR(base_->Sync());
    std::lock_guard<std::mutex> lock(env_->mu_);
    env_->synced_len_[fname_] = pos_;
    return Status::OK();
  }
  Status Close() override { return base_->Close(); }

 private:
  SimDiskEnv* env_;
  std::string fname_;
  std::unique_ptr<WritableFile> base_;
  uint64_t pos_ = 0;
};

SimDiskEnv::SimDiskEnv(Env* base, SimDiskOptions options)
    : base_(base), opts_(options) {}

Status SimDiskEnv::NewSequentialFile(const std::string& fname,
                                     std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> file;
  LT_RETURN_IF_ERROR(base_->NewSequentialFile(fname, &file));
  uint64_t size = 0;
  LT_RETURN_IF_ERROR(base_->GetFileSize(fname, &size));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ChargeOpenLocked(fname);
  }
  result->reset(new SimSequentialFile(this, fname, std::move(file), size));
  return Status::OK();
}

Status SimDiskEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> file;
  LT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &file));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ChargeOpenLocked(fname);
  }
  result->reset(new SimRandomAccessFile(this, fname, std::move(file)));
  return Status::OK();
}

Status SimDiskEnv::NewWritableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> file;
  LT_RETURN_IF_ERROR(base_->NewWritableFile(fname, &file));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Creating a file truncates: drop stale cache entries and reassign the
    // extent so the new contents land "elsewhere" on the platter.
    CacheEraseFileLocked(fname);
    extents_.erase(fname);
    inode_cache_.insert(fname);
    synced_len_[fname] = 0;  // Nothing durable until the first Sync.
  }
  result->reset(new SimWritableFile(this, fname, std::move(file)));
  return Status::OK();
}

bool SimDiskEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status SimDiskEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status SimDiskEnv::RemoveFile(const std::string& fname) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CacheEraseFileLocked(fname);
    extents_.erase(fname);
    inode_cache_.erase(fname);
    synced_len_.erase(fname);
  }
  return base_->RemoveFile(fname);
}

Status SimDiskEnv::RenameFile(const std::string& src, const std::string& dst) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CacheEraseFileLocked(src);
    CacheEraseFileLocked(dst);
    auto it = extents_.find(src);
    if (it != extents_.end()) {
      extents_[dst] = it->second;
      extents_.erase(it);
    }
    inode_cache_.erase(src);
    inode_cache_.insert(dst);
    auto sit = synced_len_.find(src);
    if (sit != synced_len_.end()) {
      synced_len_[dst] = sit->second;
      synced_len_.erase(sit);
    }
  }
  return base_->RenameFile(src, dst);
}

Status SimDiskEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}

Status SimDiskEnv::GetChildren(const std::string& dirname,
                               std::vector<std::string>* result) {
  return base_->GetChildren(dirname, result);
}

int64_t SimDiskEnv::SimElapsedMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sim_micros_;
}

void SimDiskEnv::ResetSimTime() {
  std::lock_guard<std::mutex> lock(mu_);
  sim_micros_ = 0;
  seeks_ = 0;
  bytes_read_ = 0;
  bytes_written_ = 0;
}

void SimDiskEnv::ClearCaches() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  cache_.clear();
  inode_cache_.clear();
  streaks_.clear();
  recent_files_.clear();
  head_ = -1;
}

void SimDiskEnv::SetReadahead(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_.readahead_bytes = bytes == 0 ? 1 : bytes;
}

int64_t SimDiskEnv::seek_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seeks_;
}
int64_t SimDiskEnv::bytes_read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_read_;
}
int64_t SimDiskEnv::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

bool SimDiskEnv::ConsumeReadFault() {
  int v = fail_read_countdown_.load();
  while (v > 0) {
    if (fail_read_countdown_.compare_exchange_weak(v, v - 1)) return v == 1;
  }
  return false;
}

bool SimDiskEnv::ConsumeWriteFault() {
  int v = fail_write_countdown_.load();
  while (v > 0) {
    if (fail_write_countdown_.compare_exchange_weak(v, v - 1)) return v == 1;
  }
  return false;
}

bool SimDiskEnv::ConsumeDiskSpace(size_t n) {
  int64_t free = disk_free_.load();
  while (free >= 0) {
    if (free < static_cast<int64_t>(n)) return false;
    if (disk_free_.compare_exchange_weak(free, free - static_cast<int64_t>(n))) {
      return true;
    }
  }
  return true;  // Negative budget = unlimited space.
}

Status SimDiskEnv::PowerCut() {
  std::map<std::string, uint64_t> synced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    synced = synced_len_;
  }
  for (const auto& [fname, len] : synced) {
    if (!base_->FileExists(fname)) continue;
    if (len == 0) {
      // Never synced: nothing of it survives the power cut.
      LT_RETURN_IF_ERROR(base_->RemoveFile(fname));
      continue;
    }
    uint64_t size = 0;
    LT_RETURN_IF_ERROR(base_->GetFileSize(fname, &size));
    if (size <= len) continue;
    // Unsynced tail beyond the last Sync is lost. Rewrite through base_
    // directly so the truncation itself is exempt from sim accounting and
    // injected faults.
    std::string data;
    LT_RETURN_IF_ERROR(ReadFileToString(base_, fname, &data));
    data.resize(len);
    LT_RETURN_IF_ERROR(WriteStringToFile(base_, data, fname, /*sync=*/true));
  }
  ClearCaches();
  return Status::OK();
}

uint64_t SimDiskEnv::ExtentStartLocked(const std::string& fname) {
  auto it = extents_.find(fname);
  if (it != extents_.end()) return it->second.start;
  uint64_t start = next_extent_;
  next_extent_ += kExtentBytes;
  extents_[fname] = Extent{start};
  return start;
}

void SimDiskEnv::ChargeOpenLocked(const std::string& fname) {
  // Reading the inode costs one seek unless it is cached.
  if (inode_cache_.insert(fname).second) {
    sim_micros_ += opts_.seek_micros;
    seeks_++;
    // The inode lives in the metadata area, away from the data extent.
    head_ = -1;
  }
}

void SimDiskEnv::ChargeReadLocked(const std::string& fname, uint64_t offset,
                                  size_t n, uint64_t file_size) {
  if (n == 0 || offset >= file_size) return;
  uint64_t end = std::min<uint64_t>(offset + n, file_size);
  const uint64_t unit = opts_.readahead_bytes;
  uint64_t first_chunk = offset / unit;
  uint64_t last_chunk = (end - 1) / unit;
  uint64_t start_addr = ExtentStartLocked(fname);
  const uint64_t file_chunks = (file_size + unit - 1) / unit;

  for (uint64_t chunk = first_chunk; chunk <= last_chunk; chunk++) {
    if (opts_.page_cache_bytes > 0 && CacheContainsLocked(fname, chunk)) {
      continue;  // Page-cache hit: free.
    }
    // Drive-cache model: a sequential miss stream on this file doubles its
    // prefetch window, capped by the drive cache split across the files
    // recently being read. On a miss we read `fetch` chunks in one
    // sequential pass (one seek, then pure transfer).
    uint64_t fetch = 1;
    if (opts_.drive_cache_bytes > 0) {
      // Track the set of recently read files (bounded).
      recent_files_.remove(fname);
      recent_files_.push_front(fname);
      if (recent_files_.size() > 256) recent_files_.pop_back();
      Streak& st = streaks_[fname];
      if (chunk == st.next_chunk && st.window > 0) {
        st.window = st.window * 2;
      } else {
        st.window = 1;
      }
      uint64_t cap_bytes =
          opts_.drive_cache_bytes / std::max<size_t>(1, recent_files_.size());
      uint64_t cap_chunks = std::max<uint64_t>(1, cap_bytes / unit);
      st.window = std::min(st.window, cap_chunks);
      fetch = st.window;
      st.next_chunk = chunk + fetch;
    }

    int64_t addr = static_cast<int64_t>(start_addr + chunk * unit);
    if (head_ != addr) {
      sim_micros_ += opts_.seek_micros;
      seeks_++;
    }
    uint64_t fetched_bytes = 0;
    for (uint64_t c = chunk; c < std::min(chunk + fetch, file_chunks); c++) {
      uint64_t chunk_off = c * unit;
      fetched_bytes += std::min<uint64_t>(unit, file_size - chunk_off);
      if (opts_.page_cache_bytes > 0) CacheInsertLocked(fname, c);
    }
    sim_micros_ += static_cast<int64_t>(fetched_bytes * 1000000.0 /
                                        opts_.read_bytes_per_sec);
    bytes_read_ += static_cast<int64_t>(fetched_bytes);
    head_ = addr + static_cast<int64_t>(fetched_bytes);
    // Chunks beyond the fetched range are handled by later iterations
    // (they are now cache hits if within `fetch`).
  }
}

void SimDiskEnv::ChargeWriteLocked(const std::string& fname, uint64_t offset,
                                   size_t n) {
  if (n == 0) return;
  uint64_t start_addr = ExtentStartLocked(fname);
  int64_t addr = static_cast<int64_t>(start_addr + offset);
  if (head_ != addr) {
    sim_micros_ += opts_.seek_micros;
    seeks_++;
  }
  sim_micros_ +=
      static_cast<int64_t>(n * 1000000.0 / opts_.write_bytes_per_sec);
  bytes_written_ += static_cast<int64_t>(n);
  head_ = addr + static_cast<int64_t>(n);
  // Freshly written chunks are in the page cache.
  if (opts_.page_cache_bytes > 0) {
    const uint64_t unit = opts_.readahead_bytes;
    for (uint64_t c = offset / unit; c <= (offset + n - 1) / unit; c++) {
      CacheInsertLocked(fname, c);
    }
  }
}

bool SimDiskEnv::CacheContainsLocked(const std::string& fname,
                                     uint64_t chunk) {
  auto it = cache_.find(CacheKey(fname, chunk));
  if (it == cache_.end()) return false;
  // Touch for LRU.
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

void SimDiskEnv::CacheInsertLocked(const std::string& fname, uint64_t chunk) {
  std::string key = CacheKey(fname, chunk);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(fname, chunk);
  cache_[key] = lru_.begin();
  uint64_t capacity_entries =
      std::max<uint64_t>(1, opts_.page_cache_bytes / opts_.readahead_bytes);
  while (lru_.size() > capacity_entries) {
    auto& back = lru_.back();
    cache_.erase(CacheKey(back.first, back.second));
    lru_.pop_back();
  }
}

void SimDiskEnv::CacheEraseFileLocked(const std::string& fname) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first == fname) {
      cache_.erase(CacheKey(it->first, it->second));
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace lt
