// Positioned byte reads over one file, with an mmap fast path and a
// deterministic degrade story.
//
// Every on-disk consumer in src/io (the .rrsb reader and the Matrix
// Market chunk reader) funnels its reads through this class so they all
// share the same failure semantics: each read carries the io.read fail
// point; an injected failure on the mmap path degrades the reader
// permanently to buffered pread and retries, a failure on the buffered
// path retries once more, and a third consecutive failure propagates as
// io_error. Real short reads and syscall errors are never
// retried — only injected faults are, because those model transient
// device hiccups the caller asked the chaos framework to simulate.
//
// Thread safety: read_at is const and safe to call concurrently — the
// mmap view is immutable, pread carries its own offset, and the degrade
// flag is a single atomic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rrspmm::io {

class ByteReader {
 public:
  /// Opens `path` read-only and maps it when possible; a failed mmap
  /// (or an empty file) starts in buffered mode. Throws io_error when
  /// the file cannot be opened or stat'ed.
  explicit ByteReader(const std::string& path);
  ~ByteReader();

  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  std::uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// True once reads go through pread instead of the mapping (initial
  /// mmap failure, or an io.read fault degraded the fast path).
  bool buffered() const { return buffered_.load(std::memory_order_relaxed); }

  /// Copies bytes [off, off + n) into dst. Throws io_error when the
  /// range exceeds the file or a read failure persists (see above).
  void read_at(std::uint64_t off, void* dst, std::size_t n) const;

 private:
  void read_raw(std::uint64_t off, void* dst, std::size_t n) const;

  std::string path_;
  int fd_ = -1;
  const std::byte* map_ = nullptr;
  std::uint64_t size_ = 0;
  mutable std::atomic<bool> buffered_{false};
};

}  // namespace rrspmm::io
