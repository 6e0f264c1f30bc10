#include "dfs/posix.h"

#include <algorithm>
#include <cstring>

namespace nws::dfs {

void PosixStats::fold_into(obs::MetricsSnapshot& into) const {
  if (meta_ops > 0) into.counter("dfs.posix.meta_ops", static_cast<double>(meta_ops));
  if (rmw_reads > 0) into.counter("dfs.posix.rmw_reads", static_cast<double>(rmw_reads));
  if (alignment_bytes > 0) {
    into.counter("dfs.posix.alignment_bytes", static_cast<double>(alignment_bytes));
  }
  if (peak_open_handles > 0) {
    into.gauge("dfs.posix.peak_open_handles", static_cast<double>(peak_open_handles));
  }
  if (!meta_wait_seconds.empty()) {
    into.histogram("dfs.posix.meta_wait_seconds", meta_wait_seconds);
  }
}

PosixStats& operator+=(PosixStats& a, const PosixStats& b) {
  a.meta_ops += b.meta_ops;
  a.rmw_reads += b.rmw_reads;
  a.alignment_bytes += b.alignment_bytes;
  a.peak_open_handles = std::max(a.peak_open_handles, b.peak_open_handles);
  for (const double s : b.meta_wait_seconds.samples()) a.meta_wait_seconds.add(s);
  return a;
}

PosixFs::PosixFs(Dfs& dfs, PosixConfig config, sim::Mutex* shared_meta_lock)
    : dfs_(dfs),
      config_(config),
      own_meta_lock_(dfs.client().cluster().scheduler()),
      meta_lock_(shared_meta_lock != nullptr ? shared_meta_lock : &own_meta_lock_) {
  if (config_.page_size == 0) throw std::invalid_argument("posix page_size must be non-zero");
}

sim::Task<void> PosixFs::meta_enter() {
  auto& sched = dfs_.client().cluster().scheduler();
  const sim::TimePoint queued = sched.now();
  co_await meta_lock_->lock();
  stats_.meta_wait_seconds.add(sim::to_seconds(sched.now() - queued));
  ++stats_.meta_ops;
}

Result<File*> PosixFs::file_for(int fd) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Status::error(Errc::invalid, "bad file descriptor: " + std::to_string(fd));
  }
  return &it->second;
}

sim::Task<Result<int>> PosixFs::open(const std::string& path, OpenFlags flags) {
  co_await meta_enter();
  // Branch with if/else, not ?:, — co_await inside a conditional expression
  // miscompiles under GCC (the branch temporary is torn across the suspend).
  Result<File> file = Status::error(Errc::invalid, "unreachable");
  if (flags.create) {
    file = co_await dfs_.create(path);
  } else {
    file = co_await dfs_.open(path);
  }
  meta_exit();
  if (!file.is_ok()) co_return file.status();
  const int fd = next_fd_++;
  fds_.emplace(fd, file.value());
  stats_.peak_open_handles = std::max<std::uint64_t>(stats_.peak_open_handles, fds_.size());
  co_return fd;
}

sim::Task<Status> PosixFs::close(int fd) {
  auto file = file_for(fd);
  if (!file.is_ok()) co_return file.status();
  co_await dfs_.close(*file.value());
  fds_.erase(fd);
  co_return Status::ok();
}

sim::Task<Status> PosixFs::mkdir(const std::string& path) {
  co_await meta_enter();
  const Status st = co_await dfs_.mkdir(path);
  meta_exit();
  co_return st;
}

sim::Task<Status> PosixFs::rename(const std::string& from, const std::string& to) {
  co_await meta_enter();
  const Status st = co_await dfs_.rename(from, to);
  meta_exit();
  co_return st;
}

sim::Task<Status> PosixFs::unlink(const std::string& path) {
  co_await meta_enter();
  const Status st = co_await dfs_.unlink(path);
  meta_exit();
  co_return st;
}

sim::Task<Result<std::vector<std::string>>> PosixFs::readdir(const std::string& path) {
  co_await meta_enter();
  auto names = co_await dfs_.readdir(path);
  meta_exit();
  co_return names;
}

sim::Task<Status> PosixFs::pwrite(int fd, Bytes offset, const std::uint8_t* data, Bytes len) {
  auto file = file_for(fd);
  if (!file.is_ok()) co_return file.status();
  if (len == 0) co_return Status::ok();

  const Bytes page = config_.page_size;
  const Bytes aligned_start = offset / page * page;
  const Bytes end = offset + len;
  const Bytes size = co_await dfs_.client().array_get_size(file.value()->array);
  // Widen to page boundaries, but never extend the file past both the write
  // end and its current size (the tail pad would fabricate bytes).
  const Bytes aligned_end = std::min((end + page - 1) / page * page, std::max(size, end));
  if (aligned_start == offset && aligned_end == end) {
    co_return co_await dfs_.write(*file.value(), offset, data, len);
  }

  const Bytes aligned_len = aligned_end - aligned_start;
  std::vector<std::uint8_t> merged(aligned_len, 0);
  // Read back the head/tail fragments that overlap existing data, so the
  // widened write-through preserves it (the RMW penalty).
  if (aligned_start < offset && aligned_start < size) {
    ++stats_.rmw_reads;
    auto n = co_await dfs_.read(*file.value(), aligned_start, merged.data(),
                                std::min(offset, size) - aligned_start);
    if (!n.is_ok()) co_return n.status();
  }
  if (end < aligned_end) {
    ++stats_.rmw_reads;
    auto n = co_await dfs_.read(*file.value(), end, merged.data() + (end - aligned_start),
                                aligned_end - end);
    if (!n.is_ok()) co_return n.status();
  }
  if (data != nullptr) std::memcpy(merged.data() + (offset - aligned_start), data, len);

  stats_.alignment_bytes += aligned_len - len;
  co_return co_await dfs_.write(*file.value(), aligned_start, merged.data(), aligned_len);
}

sim::Task<Result<Bytes>> PosixFs::pread(int fd, Bytes offset, std::uint8_t* out, Bytes len) {
  auto file = file_for(fd);
  if (!file.is_ok()) co_return file.status();
  co_return co_await dfs_.read(*file.value(), offset, out, len);
}

}  // namespace nws::dfs
