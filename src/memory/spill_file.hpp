#pragma once

/// \file spill_file.hpp
/// Disk tier of the activation pager: one append-grown scratch file per
/// pager holding evicted payloads (compressed blobs or raw exact bytes) in
/// reusable extents. Design choices, all serving the training access
/// pattern (write once per eviction, read once per backward fetch, free):
///  - one file per pager, not one file per page — a deep model evicting
///    hundreds of activations per iteration would otherwise churn inodes;
///  - pread/pwrite at explicit offsets, so pool workers can prefetch reads
///    concurrently with the training thread's eviction writes without a
///    shared file-position race;
///  - a first-fit free list with coalescing keeps the file near the working
///    set's high-water mark across iterations instead of growing forever;
///  - the file is unlinked in the destructor (and a process-wide open-file
///    count is exposed) so tests and CI can assert spill teardown.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ebct::memory {

/// One allocated byte range of the spill file.
struct SpillExtent {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

class SpillFile {
 public:
  /// Create the backing file inside `dir` (empty = the system temp
  /// directory). Throws std::runtime_error when the file cannot be created.
  explicit SpillFile(const std::string& dir = "");
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Write `size` bytes and return the extent holding them. Throws on I/O
  /// failure (disk full, ...) without leaking the extent.
  SpillExtent write(const void* data, std::size_t size);

  /// Read an extent fully into `out` (must hold extent.size bytes). Throws
  /// std::runtime_error on short or failed reads (truncated spill file).
  void read(const SpillExtent& extent, void* out) const;

  /// Return an extent to the free list (coalescing with neighbours).
  void free_extent(const SpillExtent& extent);

  /// Path of the backing file (tests corrupt it deliberately).
  const std::string& path() const { return path_; }

  /// Number of SpillFile instances whose backing file is still open —
  /// the spill-dir teardown check CI runs after every budget-sweep smoke.
  static std::uint64_t files_open();

  /// Test-only fault injection: make the next `n` write() calls across all
  /// SpillFile instances throw as if the disk were full, without touching
  /// the file. The write-behind soak uses this to exercise the async
  /// error path (charge rollback, spill_error_ rethrow) under load. Passing
  /// 0 clears any pending faults.
  static void fail_next_writes(std::uint64_t n);

 private:
  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::uint64_t end_ = 0;        ///< append point (= high-water file size)
  std::vector<SpillExtent> free_;  ///< sorted by offset, coalesced
};

}  // namespace ebct::memory
