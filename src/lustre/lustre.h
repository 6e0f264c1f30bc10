// Lustre-like parallel file system baseline.
//
// The storage system DAOS is evaluated against: "a Lustre distributed file
// system is used for operational runs at the centre, with approximately 300
// Lustre Object Storage Targets (OSTs), each with 10 spinning disks of
// 2 TiB.  It provides a file-per-process IOR bandwidth of up to 165 GiB/s,
// and a sustained application bandwidth in the order of 50 GiB/s during a
// typical model and product generation execution" (paper Section 1.2).
//
// The model captures the three properties that matter for the comparison:
//
//   * OST streaming bandwidth — spinning-disk arrays deliver their rated
//     bandwidth only to streaming access (165 GiB/s aggregate here);
//   * seek degradation under mixed read/write — concurrent model output and
//     product generation drop an OST well below streaming rate (the 50
//     GiB/s sustained figure);
//   * POSIX consistency — writes to a shared file serialise on the file's
//     range lock, the "excessive consistency assurance" the paper names as
//     a scalability limit of POSIX file systems (Section 1.1).
//
// Metadata operations (create/open) are serviced by the MDS at a bounded
// operation rate.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/flow.h"
#include "net/topology.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace nws::lustre {

/// The per-OST disk array, the mixed-seek overhead, the MDS latency and the
/// default stripe layout are constants in lustre.cc.
struct LustreConfig {
  std::size_t osts = 300;

  /// MDS metadata service: bounded operation rate (plus a fixed per-op
  /// latency).
  double mds_ops_per_second = 40000.0;

  std::size_t client_nodes = 16;
  net::ProviderProfile provider;  // defaulted to tcp in the constructor

  std::uint64_t seed = 1;
};

struct FileHandle {
  std::uint64_t inode = 0;
  [[nodiscard]] bool valid() const { return inode != 0; }
};

class LustreSystem;

/// POSIX-like client API; one per simulated process.
class LustreClient {
 public:
  LustreClient(LustreSystem& system, net::Endpoint endpoint, std::uint64_t salt);

  /// creat(): allocates the inode and stripe layout on the MDS.
  sim::Task<Result<FileHandle>> create(const std::string& path, unsigned stripe_count = 0,
                                       Bytes stripe_size = 0);
  sim::Task<Result<FileHandle>> open(const std::string& path);
  sim::Task<Status> write(FileHandle handle, Bytes offset, Bytes len);
  sim::Task<Result<Bytes>> read(FileHandle handle, Bytes offset, Bytes len);
  /// Content-bearing variants: identical timing, plus the payload is kept
  /// with the file so interface benchmarks can checksum what they read back.
  sim::Task<Status> write(FileHandle handle, Bytes offset, const std::uint8_t* data, Bytes len);
  sim::Task<Result<Bytes>> read(FileHandle handle, Bytes offset, std::uint8_t* out, Bytes len);
  sim::Task<Bytes> file_size(FileHandle handle);
  sim::Task<void> close(FileHandle& handle);

  /// rename(2): one MDS op; an existing file at `to` is replaced.
  sim::Task<Status> rename(const std::string& from, const std::string& to);
  /// unlink(2): one MDS op; drops the file and frees its layout.
  sim::Task<Status> unlink(const std::string& path);
  /// Names directly under `dir` ("/a" lists "/a/b" as "b", not "/a/b/c"),
  /// sorted.  One MDS op, like a readdir RPC.
  sim::Task<Result<std::vector<std::string>>> list(const std::string& dir);

 private:
  friend class LustreSystem;
  LustreSystem& system_;
  net::Endpoint endpoint_;
  Rng rng_;
};

class LustreSystem {
 public:
  LustreSystem(sim::Scheduler& sched, LustreConfig config);

  [[nodiscard]] const LustreConfig& config() const { return config_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::FlowScheduler& flows() { return flows_; }

  [[nodiscard]] std::size_t ost_count() const { return config_.osts; }
  [[nodiscard]] Bytes capacity() const;
  [[nodiscard]] double ost_stream_bandwidth() const;

  [[nodiscard]] net::Endpoint client_endpoint(std::size_t node, std::size_t proc) const {
    return net::Endpoint{node, proc % 2};
  }

  [[nodiscard]] std::size_t file_count() const { return files_by_path_.size(); }

 private:
  friend class LustreClient;

  struct OstState {
    net::LinkId link = net::kInvalidLink;
    std::size_t active_reads = 0;
    std::size_t active_writes = 0;
  };

  struct FileState {
    std::uint64_t inode = 0;
    std::string path;
    unsigned stripe_count = 1;
    Bytes stripe_size = 1_MiB;
    std::vector<std::size_t> osts;  // stripe targets, round-robin from base
    Bytes size = 0;
    std::vector<std::uint8_t> content;  // payload (content-bearing API only)
    std::unique_ptr<sim::Mutex> range_lock;  // POSIX write serialisation
  };

  /// MDS metadata op: latency + a slot of the bounded op-rate service.
  sim::Task<void> mds_op(net::Endpoint client);

  /// Marks an I/O as active on the OST and returns the mixed-seek service
  /// multiplier for it (1.0 when streaming, 1 + kMixedSeekOverhead when the
  /// other direction is active).
  double ost_begin_io(std::size_t ost, bool is_write);
  void ost_end_io(std::size_t ost, bool is_write);

  /// Moves [offset, offset+len) of `file` between `client` and the file's
  /// OSTs: the extent is striped over them, one flow per OST it touches (its
  /// rate-cap jitter drawn from `rng` in stripe order), and seek penalties
  /// surface as extra OST service.
  sim::Task<void> striped_transfer(net::Endpoint client, Rng& rng, const FileState& file, Bytes offset,
                                   Bytes len, bool is_write);

  [[nodiscard]] FileState* find(std::uint64_t inode);

  sim::Scheduler& sched_;
  LustreConfig config_;
  net::FlowScheduler flows_;
  std::unique_ptr<net::Topology> client_fabric_;  // client nodes only
  std::vector<OstState> osts_;
  net::LinkId mds_link_ = net::kInvalidLink;

  std::uint64_t next_inode_ = 1;
  std::size_t next_ost_ = 0;  // round-robin stripe allocator (Lustre default)
  std::unordered_map<std::string, std::uint64_t> files_by_path_;
  std::unordered_map<std::uint64_t, FileState> files_;
  Rng rng_;
};

}  // namespace nws::lustre
