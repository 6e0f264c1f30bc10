#include "dfs/file_fdb.h"

#include "common/md5.h"
#include "common/table.h"

namespace nws::dfs {

std::string ForecastFiles::field_path(const std::string& forecast_key,
                                      const std::string& field_key) {
  return "/fdb/" + md5(forecast_key).hex() + "/" + md5(field_key).hex();
}

sim::Task<Status> ForecastFiles::do_mkdir(const std::string& path) {
  // Branch with if/else, not ?:, — co_await inside a conditional expression
  // miscompiles under GCC (the branch temporary is torn across the suspend).
  Status st = Status::ok();
  if (posix_ != nullptr) {
    st = co_await posix_->mkdir(path);
  } else {
    st = co_await dfs_->mkdir(path);
  }
  if (st.code() == Errc::already_exists) co_return Status::ok();
  co_return st;
}

sim::Task<Status> ForecastFiles::ensure_dirs(const std::string& forecast_dir) {
  if (known_dirs_.count(forecast_dir) != 0) co_return Status::ok();
  const Status root = co_await do_mkdir("/fdb");
  if (!root.is_ok()) co_return root;
  const Status dir = co_await do_mkdir(forecast_dir);
  if (!dir.is_ok()) co_return dir;
  known_dirs_.insert(forecast_dir);
  co_return Status::ok();
}

sim::Task<Status> ForecastFiles::write_field(const std::string& forecast_key,
                                             const std::string& field_key,
                                             const std::uint8_t* data, Bytes len) {
  const std::string forecast_dir = "/fdb/" + md5(forecast_key).hex();
  const Status dirs = co_await ensure_dirs(forecast_dir);
  if (!dirs.is_ok()) co_return dirs;

  const std::string final_path = forecast_dir + "/" + md5(field_key).hex();
  const std::string tmp_path =
      final_path + strf(".tmp.%llu", static_cast<unsigned long long>(tmp_counter_++));

  if (posix_ != nullptr) {
    auto fd = co_await posix_->open(tmp_path, {.create = true});
    if (!fd.is_ok()) co_return fd.status();
    const Status written = co_await posix_->pwrite(fd.value(), 0, data, len);
    const Status closed = co_await posix_->close(fd.value());
    if (!written.is_ok()) co_return written;
    if (!closed.is_ok()) co_return closed;
    co_return co_await posix_->rename(tmp_path, final_path);
  }

  auto file = co_await dfs_->create(tmp_path);
  if (!file.is_ok()) co_return file.status();
  const Status written = co_await dfs_->write(file.value(), 0, data, len);
  co_await dfs_->close(file.value());
  if (!written.is_ok()) co_return written;
  co_return co_await dfs_->rename(tmp_path, final_path);
}

sim::Task<Result<Bytes>> ForecastFiles::read_field(const std::string& forecast_key,
                                                   const std::string& field_key, std::uint8_t* out,
                                                   Bytes cap) {
  const std::string path = field_path(forecast_key, field_key);
  if (posix_ != nullptr) {
    auto fd = co_await posix_->open(path);
    if (!fd.is_ok()) co_return fd.status();
    auto n = co_await posix_->pread(fd.value(), 0, out, cap);
    const Status closed = co_await posix_->close(fd.value());
    if (!n.is_ok()) co_return n.status();
    if (!closed.is_ok()) co_return closed;
    co_return n;
  }
  auto file = co_await dfs_->open(path);
  if (!file.is_ok()) co_return file.status();
  auto n = co_await dfs_->read(file.value(), 0, out, cap);
  co_await dfs_->close(file.value());
  co_return n;
}

sim::Task<Result<std::vector<std::string>>> ForecastFiles::list_fields(
    const std::string& forecast_key) {
  const std::string forecast_dir = "/fdb/" + md5(forecast_key).hex();
  if (posix_ != nullptr) co_return co_await posix_->readdir(forecast_dir);
  co_return co_await dfs_->readdir(forecast_dir);
}

sim::Task<Status> ForecastFiles::remove_field(const std::string& forecast_key,
                                              const std::string& field_key) {
  const std::string path = field_path(forecast_key, field_key);
  if (posix_ != nullptr) co_return co_await posix_->unlink(path);
  co_return co_await dfs_->unlink(path);
}

}  // namespace nws::dfs
