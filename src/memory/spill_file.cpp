#include "memory/spill_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace ebct::memory {

namespace {

std::atomic<std::uint64_t> g_open_files{0};
std::atomic<std::uint64_t> g_next_serial{1};
std::atomic<std::uint64_t> g_fail_writes{0};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("SpillFile: " + what + ": " + std::strerror(errno));
}

}  // namespace

SpillFile::SpillFile(const std::string& dir) {
  std::filesystem::path base =
      dir.empty() ? std::filesystem::temp_directory_path() : std::filesystem::path(dir);
  std::error_code ec;
  std::filesystem::create_directories(base, ec);  // best effort; open() reports
  char name[64];
  std::snprintf(name, sizeof(name), "ebct-spill-%ld-%llu.bin",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    g_next_serial.fetch_add(1, std::memory_order_relaxed)));
  path_ = (base / name).string();
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd_ < 0) throw_errno("open " + path_);
  g_open_files.fetch_add(1, std::memory_order_relaxed);
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
    g_open_files.fetch_sub(1, std::memory_order_relaxed);
  }
}

SpillExtent SpillFile::write(const void* data, std::size_t size) {
  // Injected faults fire before any state changes, so a failed write leaves
  // the extent map untouched — the same contract as a real ENOSPC pwrite.
  for (auto n = g_fail_writes.load(std::memory_order_relaxed); n > 0;) {
    if (g_fail_writes.compare_exchange_weak(n, n - 1, std::memory_order_relaxed))
      throw std::runtime_error("SpillFile: pwrite: injected write fault");
  }
  SpillExtent ext;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // First fit; split when the hole is larger. Holes are extent-sized
    // blob payloads, so fragmentation stays bounded by the page mix.
    std::size_t i = 0;
    for (; i < free_.size(); ++i) {
      if (free_[i].size >= size) break;
    }
    if (i < free_.size()) {
      ext = {free_[i].offset, size};
      if (free_[i].size == size) {
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        free_[i].offset += size;
        free_[i].size -= size;
      }
    } else {
      ext = {end_, size};
      end_ += size;
    }
  }

  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pwrite(fd_, p + done, size - done,
                               static_cast<off_t>(ext.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      free_extent({ext.offset, size});
      throw_errno("pwrite");
    }
    done += static_cast<std::size_t>(n);
  }
  return ext;
}

void SpillFile::read(const SpillExtent& extent, void* out) const {
  char* p = static_cast<char*>(out);
  std::size_t done = 0;
  while (done < extent.size) {
    const ssize_t n = ::pread(fd_, p + done, extent.size - done,
                              static_cast<off_t>(extent.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread");
    }
    if (n == 0) throw std::runtime_error("SpillFile: short read (truncated spill file)");
    done += static_cast<std::size_t>(n);
  }
}

void SpillFile::free_extent(const SpillExtent& extent) {
  if (extent.size == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::lower_bound(
      free_.begin(), free_.end(), extent,
      [](const SpillExtent& a, const SpillExtent& b) { return a.offset < b.offset; });
  it = free_.insert(it, extent);
  // Coalesce with the next hole, then the previous one.
  const auto next = it + 1;
  if (next != free_.end() && it->offset + it->size == next->offset) {
    it->size += next->size;
    it = free_.erase(next) - 1;
  }
  if (it != free_.begin()) {
    const auto prev = it - 1;
    if (prev->offset + prev->size == it->offset) {
      prev->size += it->size;
      free_.erase(it);
    }
  }
}

std::uint64_t SpillFile::files_open() {
  return g_open_files.load(std::memory_order_relaxed);
}

void SpillFile::fail_next_writes(std::uint64_t n) {
  g_fail_writes.store(n, std::memory_order_relaxed);
}

}  // namespace ebct::memory
