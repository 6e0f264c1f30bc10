// POSIX-emulation adapter over the dfs namespace.
//
// Models what the DAOS POSIX compatibility path (dfuse + libioil, without
// DFS-aware interception) costs relative to native dfs calls, per the paper's
// interface comparison:
//
//   * metadata serialisation — POSIX path resolution and namespace mutation
//     funnel through kernel-side locking; every metadata operation here
//     acquires one global sim::Mutex, and the wait is recorded in the
//     dfs.posix.meta_wait_seconds histogram.
//   * page-aligned write-through — unaligned pwrite is widened to page
//     granularity: fragments overlapping existing data are read back first
//     (read-modify-write, dfs.posix.rmw_reads) and the widened extent is
//     written through (extra bytes in dfs.posix.alignment_bytes).  The file
//     is never extended past max(file size, write end).
//   * descriptor table — open returns an integer fd mapped to the dfs File;
//     the high-water mark lands in the dfs.posix.peak_open_handles gauge.
//
// Data-plane reads pass through unpenalised (libioil intercepts those).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "dfs/dfs.h"
#include "sim/sync.h"

namespace nws::dfs {

struct PosixConfig {
  /// Write-through granularity: unaligned pwrites widen to this boundary.
  Bytes page_size = 4096;
};

/// Adapter counters; fold_into emits them as `dfs.posix.*` metrics.
struct PosixStats {
  std::uint64_t meta_ops = 0;   // serialised metadata operations
  std::uint64_t rmw_reads = 0;  // alignment fragments read back before write
  Bytes alignment_bytes = 0;    // extra bytes written by page widening
  std::uint64_t peak_open_handles = 0;
  Summary meta_wait_seconds;  // time spent queued on the metadata lock

  void fold_into(obs::MetricsSnapshot& into) const;
};

/// Accumulates one process's adapter counters into a run-wide total (wait
/// samples append, the handle peak takes the max).
PosixStats& operator+=(PosixStats& a, const PosixStats& b);

/// Flags for PosixFs::open, mirroring the O_* subset the campaign uses.
struct OpenFlags {
  bool create = false;  // O_CREAT, always exclusive (O_CREAT|O_EXCL)
};

/// One emulated POSIX mount over a dfs namespace.  Each simulated process
/// owns a PosixFs; by default the metadata mutex is per-mount (the dfuse
/// request queue of one process), but a workload can pass one shared
/// sim::Mutex to every mount to model the cross-process metadata
/// serialisation a shared POSIX namespace imposes — the "excessive
/// consistency assurance" the paper names.
class PosixFs {
 public:
  PosixFs(Dfs& dfs, PosixConfig config = {}, sim::Mutex* shared_meta_lock = nullptr);

  /// Opens `path`, or with flags.create creates it (already_exists if the
  /// name is taken), returning a file descriptor (>= 3).
  sim::Task<Result<int>> open(const std::string& path, OpenFlags flags = {});
  sim::Task<Status> close(int fd);

  sim::Task<Status> mkdir(const std::string& path);
  sim::Task<Status> rename(const std::string& from, const std::string& to);
  sim::Task<Status> unlink(const std::string& path);
  sim::Task<Result<std::vector<std::string>>> readdir(const std::string& path);

  sim::Task<Status> pwrite(int fd, Bytes offset, const std::uint8_t* data, Bytes len);
  sim::Task<Result<Bytes>> pread(int fd, Bytes offset, std::uint8_t* out, Bytes len);

  [[nodiscard]] const PosixStats& stats() const { return stats_; }
  [[nodiscard]] Dfs& dfs() { return dfs_; }

 private:
  /// Acquires the metadata lock, recording the queueing delay.
  sim::Task<void> meta_enter();
  void meta_exit() { meta_lock_->unlock(); }

  Result<File*> file_for(int fd);

  Dfs& dfs_;
  PosixConfig config_;
  sim::Mutex own_meta_lock_;
  sim::Mutex* meta_lock_;  // own_meta_lock_, or the workload's shared lock
  std::map<int, File> fds_;
  int next_fd_ = 3;
  PosixStats stats_;
};

}  // namespace nws::dfs
