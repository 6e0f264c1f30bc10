#include "lustre/lustre.h"

#include <algorithm>

#include "common/table.h"
#include "sim/when_all.h"

namespace nws::lustre {
namespace {

/// Each OST is an array of 10 spinning disks of 2 TiB (Section 1.2).
constexpr std::size_t kDisksPerOst = 10;
constexpr Bytes kDiskCapacity = 2_TiB;
/// Streaming bandwidth per spinning disk (~56 MiB/s): 10 disks x 300 OSTs
/// = 165 GiB/s aggregate, matching the paper's IOR figure.
constexpr double kDiskStreamBandwidth = gib_per_sec(0.055);
/// Extra OST service consumed per byte when the OST is serving mixed
/// read/write traffic (head seeks): calibrated so sustained mixed
/// bandwidth lands near 50/165 of streaming (Section 1.2).
constexpr double kMixedSeekOverhead = 2.3;
/// Fixed latency of each MDS metadata operation.
constexpr sim::Duration kMdsLatency = sim::microseconds(250);
/// Layout of a file created without an explicit stripe size/count.
constexpr Bytes kDefaultStripeSize = 1_MiB;
constexpr unsigned kDefaultStripeCount = 1;

}  // namespace

LustreSystem::LustreSystem(sim::Scheduler& sched, LustreConfig config)
    : sched_(sched), config_(std::move(config)), flows_(sched), rng_(config_.seed) {
  if (config_.osts == 0) throw std::invalid_argument("Lustre needs at least one OST");
  if (config_.client_nodes == 0) throw std::invalid_argument("Lustre needs at least one client node");
  if (config_.provider.name.empty()) config_.provider = net::tcp_provider();

  net::TopologyConfig tcfg;
  tcfg.nodes = config_.client_nodes;
  tcfg.provider = config_.provider;
  client_fabric_ = std::make_unique<net::Topology>(flows_, tcfg);

  osts_.resize(config_.osts);
  for (std::size_t i = 0; i < config_.osts; ++i) {
    net::Link link;
    link.name = strf("ost%zu", i);
    link.raw_capacity = ost_stream_bandwidth();
    osts_[i].link = flows_.add_link(std::move(link));
  }

  // MDS op-rate service: one "byte" per metadata operation on a link whose
  // capacity is the op rate.
  net::Link mds;
  mds.name = "mds";
  mds.raw_capacity = config_.mds_ops_per_second;
  mds_link_ = flows_.add_link(std::move(mds));
}

Bytes LustreSystem::capacity() const { return config_.osts * kDisksPerOst * kDiskCapacity; }

double LustreSystem::ost_stream_bandwidth() const {
  return static_cast<double>(kDisksPerOst) * kDiskStreamBandwidth;
}

LustreSystem::FileState* LustreSystem::find(std::uint64_t inode) {
  const auto it = files_.find(inode);
  return it == files_.end() ? nullptr : &it->second;
}

sim::Task<void> LustreSystem::mds_op(net::Endpoint /*client*/) {
  co_await sched_.delay(kMdsLatency);
  std::vector<net::LinkId> path{mds_link_};
  co_await flows_.transfer(std::move(path), 1);
}

double LustreSystem::ost_begin_io(std::size_t ost, bool is_write) {
  OstState& state = osts_.at(ost);
  const bool mixed = (is_write ? state.active_reads : state.active_writes) > 0;
  ++(is_write ? state.active_writes : state.active_reads);
  return mixed ? 1.0 + kMixedSeekOverhead : 1.0;
}

void LustreSystem::ost_end_io(std::size_t ost, bool is_write) {
  OstState& state = osts_.at(ost);
  auto& active = is_write ? state.active_writes : state.active_reads;
  if (active == 0) throw std::logic_error("LustreSystem::ost_end_io underflow");
  --active;
}

LustreClient::LustreClient(LustreSystem& system, net::Endpoint endpoint, std::uint64_t salt)
    : system_(system), endpoint_(endpoint), rng_(system.rng_.fork(salt)) {}

sim::Task<Result<FileHandle>> LustreClient::create(const std::string& path, unsigned stripe_count,
                                                   Bytes stripe_size) {
  co_await system_.mds_op(endpoint_);
  if (system_.files_by_path_.count(path) != 0) {
    co_return Status::error(Errc::already_exists, "file exists: " + path);
  }
  LustreSystem::FileState file;
  file.inode = system_.next_inode_++;
  file.path = path;
  file.stripe_count = stripe_count != 0 ? stripe_count : kDefaultStripeCount;
  file.stripe_size = stripe_size != 0 ? stripe_size : kDefaultStripeSize;
  file.stripe_count =
      static_cast<unsigned>(std::min<std::size_t>(file.stripe_count, system_.config_.osts));
  // Lustre's allocator assigns stripes round-robin across OSTs, keeping
  // load balanced — this is what lets file-per-process IOR approach the
  // aggregate streaming bandwidth.
  for (unsigned i = 0; i < file.stripe_count; ++i) {
    file.osts.push_back(system_.next_ost_++ % system_.config_.osts);
  }
  file.range_lock = std::make_unique<sim::Mutex>(system_.sched_);
  const FileHandle handle{file.inode};
  system_.files_by_path_.emplace(path, file.inode);
  system_.files_.emplace(file.inode, std::move(file));
  co_return handle;
}

sim::Task<Result<FileHandle>> LustreClient::open(const std::string& path) {
  co_await system_.mds_op(endpoint_);
  const auto it = system_.files_by_path_.find(path);
  if (it == system_.files_by_path_.end()) {
    co_return Status::error(Errc::not_found, "no such file: " + path);
  }
  co_return FileHandle{it->second};
}

sim::Task<void> LustreSystem::striped_transfer(net::Endpoint client, Rng& rng, const FileState& file,
                                               Bytes offset, Bytes len, bool is_write) {
  const auto per_ost = stripe_split(offset, len, file.stripe_size, file.osts.size());
  std::vector<sim::Task<void>> transfers;
  std::vector<std::size_t> touched;
  for (std::size_t i = 0; i < per_ost.size(); ++i) {
    if (per_ost[i] == 0) continue;
    const std::size_t ost = file.osts[i];
    const double factor = ost_begin_io(ost, is_write);
    touched.push_back(ost);
    const auto bytes = static_cast<Bytes>(static_cast<double>(per_ost[i]) * factor);
    std::vector<net::LinkId> path;
    if (is_write) {
      path = {client_fabric_->nic_tx(client), osts_[ost].link};
    } else {
      path = {osts_[ost].link, client_fabric_->nic_rx(client)};
    }
    const double cap = config_.provider.stream_rate_cap(per_ost[i]) * rng.lognormal_jitter(0.05);
    auto one = [](net::FlowScheduler& fs, std::vector<net::LinkId> p, Bytes b, double c) -> sim::Task<void> {
      co_await fs.transfer(std::move(p), b, c);
    }(flows_, std::move(path), bytes, cap);
    transfers.push_back(std::move(one));
  }
  if (transfers.size() == 1) {
    co_await std::move(transfers.front());
  } else if (!transfers.empty()) {
    co_await sim::when_all(sched_, std::move(transfers));
  }
  for (const std::size_t ost : touched) ost_end_io(ost, is_write);
}

sim::Task<Status> LustreClient::write(FileHandle handle, Bytes offset, const std::uint8_t* data,
                                      Bytes len) {
  LustreSystem::FileState* file = system_.find(handle.inode);
  if (file == nullptr) co_return Status::error(Errc::invalid, "stale file handle");
  if (len == 0) co_return Status::ok();

  // POSIX consistency: concurrent writes to the same file serialise on the
  // file's lock (file-per-process workloads never contend here).
  co_await file->range_lock->lock();
  co_await system_.striped_transfer(endpoint_, rng_, *file, offset, len, /*is_write=*/true);
  file->size = std::max(file->size, offset + len);
  if (data != nullptr) {
    if (file->content.size() < offset + len) file->content.resize(offset + len, 0);
    std::copy(data, data + len, file->content.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  file->range_lock->unlock();
  co_return Status::ok();
}

sim::Task<Result<Bytes>> LustreClient::read(FileHandle handle, Bytes offset, std::uint8_t* out,
                                            Bytes len) {
  LustreSystem::FileState* file = system_.find(handle.inode);
  if (file == nullptr) co_return Status::error(Errc::invalid, "stale file handle");
  if (offset >= file->size) co_return Bytes{0};
  const Bytes to_read = std::min(len, file->size - offset);
  co_await system_.striped_transfer(endpoint_, rng_, *file, offset, to_read, /*is_write=*/false);
  if (out != nullptr) {
    // Bytes written without a payload have none stored: they read as zeros.
    std::fill(out, out + to_read, 0);
    if (offset < file->content.size()) {
      const Bytes have = std::min<Bytes>(to_read, file->content.size() - offset);
      std::copy_n(file->content.begin() + static_cast<std::ptrdiff_t>(offset), have, out);
    }
  }
  co_return to_read;
}

sim::Task<Status> LustreClient::rename(const std::string& from, const std::string& to) {
  co_await system_.mds_op(endpoint_);
  const auto it = system_.files_by_path_.find(from);
  if (it == system_.files_by_path_.end()) {
    co_return Status::error(Errc::not_found, "no such file: " + from);
  }
  const std::uint64_t inode = it->second;
  if (from == to) co_return Status::ok();
  const auto dst = system_.files_by_path_.find(to);
  if (dst != system_.files_by_path_.end()) {
    system_.files_.erase(dst->second);
    system_.files_by_path_.erase(dst);
  }
  system_.files_by_path_.erase(from);
  system_.files_by_path_.emplace(to, inode);
  system_.find(inode)->path = to;
  co_return Status::ok();
}

sim::Task<Status> LustreClient::unlink(const std::string& path) {
  co_await system_.mds_op(endpoint_);
  const auto it = system_.files_by_path_.find(path);
  if (it == system_.files_by_path_.end()) {
    co_return Status::error(Errc::not_found, "no such file: " + path);
  }
  system_.files_.erase(it->second);
  system_.files_by_path_.erase(it);
  co_return Status::ok();
}

sim::Task<Result<std::vector<std::string>>> LustreClient::list(const std::string& dir) {
  co_await system_.mds_op(endpoint_);
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, inode] : system_.files_by_path_) {
    if (path.size() <= prefix.size() || path.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string rest = path.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
  }
  std::sort(names.begin(), names.end());  // hash-map order is not stable
  co_return names;
}

sim::Task<Bytes> LustreClient::file_size(FileHandle handle) {
  co_await system_.mds_op(endpoint_);
  LustreSystem::FileState* file = system_.find(handle.inode);
  co_return file == nullptr ? Bytes{0} : file->size;
}

sim::Task<void> LustreClient::close(FileHandle& handle) {
  handle.inode = 0;
  co_await system_.sched_.delay(sim::microseconds(20));
}

}  // namespace nws::lustre
