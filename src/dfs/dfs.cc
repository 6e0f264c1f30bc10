#include "dfs/dfs.h"

#include <charconv>
#include <stdexcept>

#include "common/table.h"
#include "dfs/path.h"
#include "obs/trace.h"

namespace nws::dfs {
namespace {

constexpr const char* kDfsMagic = "nws-dfs-v1";
/// User-hi value reserved for the well-known objects; mount ranks must stay
/// below it.
constexpr std::uint32_t kReservedUserHi = 0xFFFFFFFFu;
constexpr std::uint64_t kSuperblockUserLo = 0;
constexpr std::uint64_t kRootUserLo = 1;

Result<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return Status::error(Errc::invalid, "malformed dfs number: '" + std::string(s) + "'");
  }
  return v;
}

}  // namespace

void DfsStats::fold_into(obs::MetricsSnapshot& into) const {
  const auto add = [&into](const char* name, std::uint64_t v) {
    if (v > 0) into.counter(name, static_cast<double>(v));
  };
  add("dfs.lookups", lookups);
  add("dfs.mkdirs", mkdirs);
  add("dfs.creates", creates);
  add("dfs.opens", opens);
  add("dfs.reads", reads);
  add("dfs.writes", writes);
  add("dfs.renames", renames);
  add("dfs.readdirs", readdirs);
  add("dfs.unlinks", unlinks);
  add("dfs.bytes_read", bytes_read);
  add("dfs.bytes_written", bytes_written);
  add("dfs.retries", retries);
}

DfsStats& operator+=(DfsStats& a, const DfsStats& b) {
  a.lookups += b.lookups;
  a.mkdirs += b.mkdirs;
  a.creates += b.creates;
  a.opens += b.opens;
  a.reads += b.reads;
  a.writes += b.writes;
  a.renames += b.renames;
  a.readdirs += b.readdirs;
  a.unlinks += b.unlinks;
  a.bytes_read += b.bytes_read;
  a.bytes_written += b.bytes_written;
  a.retries += b.retries;
  return a;
}

Dfs::Dfs(daos::Client& client, DfsConfig config, std::uint32_t rank)
    : client_(client),
      config_(config),
      rank_(rank),
      // Seeded from (cluster seed, rank) without drawing from the cluster's
      // own stream, so enabling retries never perturbs unrelated jitter.
      retrier_(client, mix64(client.cluster().config().seed ^ (0xdf50d100ull + rank)),
               &stats_.retries) {
  if (rank_ == kReservedUserHi) {
    throw std::invalid_argument("dfs rank collides with the reserved object-id namespace");
  }
  // Directory KVs are replicated or striped, never erasure coded: parity
  // over a keyspace has no defined chunking (same restriction as FieldIo).
  if (daos::ec_data_shards(config_.dir_class) > 0) {
    throw std::invalid_argument(std::string("erasure-coded dir_class is unsupported: ") +
                                daos::object_class_name(config_.dir_class));
  }
}

daos::ObjectId Dfs::next_oid(daos::ObjectType type, daos::ObjectClass oclass) {
  return daos::ObjectId::generate(rank_, oid_counter_++, type, oclass);
}

std::string Dfs::serialize_entry(const Entry& e) {
  return strf("%c|%llu|%llu", e.type == EntryType::directory ? 'd' : 'f',
              static_cast<unsigned long long>(e.oid.hi), static_cast<unsigned long long>(e.oid.lo));
}

Result<Dfs::Entry> Dfs::parse_entry(const std::string& value) {
  const std::size_t second = value.find('|', 2);
  if (value.size() < 2 || (value[0] != 'f' && value[0] != 'd') || value[1] != '|' ||
      second == std::string::npos) {
    return Status::error(Errc::invalid, "malformed dfs entry record: '" + value + "'");
  }
  const auto hi = parse_u64(std::string_view(value).substr(2, second - 2));
  const auto lo = parse_u64(std::string_view(value).substr(second + 1));
  if (!hi.is_ok()) return hi.status();
  if (!lo.is_ok()) return lo.status();
  return Entry{value[0] == 'd' ? EntryType::directory : EntryType::file,
               daos::ObjectId{hi.value(), lo.value()}};
}

sim::Task<Status> Dfs::mount(const std::string& name) {
  obs::Span span("dfs.mount", "dfs", client_.trace_actor());
  if (mounted_) co_return Status::error(Errc::invalid, "dfs already mounted");
  co_await client_.pool_connect();

  // The container uuid is a pure function of the mount name, so concurrent
  // mounters collide on the same container instead of orphaning one.
  const daos::Uuid uuid = daos::Uuid::from_string_md5("dfs:" + name);
  const Status created = co_await retrier_.run([&] { return client_.cont_create(uuid); });
  if (!created.is_ok() && created.code() != Errc::already_exists) co_return created;
  auto opened =
      co_await retrier_.run_result<daos::ContHandle>([&] { return client_.cont_open(uuid); });
  if (!opened.is_ok()) co_return opened.status();
  cont_ = opened.value();

  // The superblock oid must NOT depend on config_.dir_class: it is how a
  // remount discovers the formatted dir_class, so every mount — right or
  // wrong about the class — has to derive the same well-known id.
  const daos::ObjectId super_oid = daos::ObjectId::generate(
      kReservedUserHi, kSuperblockUserLo, daos::ObjectType::key_value, daos::ObjectClass::SX);
  root_oid_ = daos::ObjectId::generate(kReservedUserHi, kRootUserLo, daos::ObjectType::key_value,
                                       config_.dir_class);
  daos::KvHandle super = co_await client_.kv_open(cont_, super_oid);

  // The whole superblock is one record under one key, so a racing mount
  // sees all of it or none of it.  The key is hoisted to a local: Retrier
  // task factories must not bind reference parameters to temporaries
  // (daos/retry.h LIFETIME note).
  const std::string key = "superblock";
  const std::string record =
      std::string(kDfsMagic) + "|" + daos::object_class_name(config_.dir_class);
  auto stored =
      co_await retrier_.run_result<std::string>([&] { return client_.kv_get(super, key); });
  if (stored.status().code() == Errc::not_found) {
    // Format.  The conditional insert gives exactly one racer the formatter
    // role; a loser reads back the winning record and validates it like any
    // remount.
    const Status fmt =
        co_await retrier_.run([&] { return client_.kv_put_if_absent(super, key, record); });
    if (fmt.is_ok()) {
      stored = record;
    } else if (fmt.code() == Errc::already_exists) {
      stored =
          co_await retrier_.run_result<std::string>([&] { return client_.kv_get(super, key); });
    } else {
      co_return fmt;
    }
  }
  if (!stored.is_ok()) co_return stored.status();
  const std::string& found = stored.value();
  if (found != record) {
    const std::size_t bar = found.find('|');
    if (found.substr(0, bar) != kDfsMagic) {
      co_return Status::error(Errc::invalid, "not a dfs container: bad magic '" + found + "'");
    }
    co_return Status::error(Errc::invalid,
                            "dfs dir_class mismatch: formatted with " + found.substr(bar + 1));
  }

  mounted_ = true;
  co_return Status::ok();
}

sim::Task<Result<daos::KvHandle*>> Dfs::dir_kv(const daos::ObjectId& oid) {
  const auto it = dir_kvs_.find(oid);
  if (it != dir_kvs_.end()) co_return &it->second;
  daos::KvHandle handle = co_await client_.kv_open(cont_, oid);
  co_return &dir_kvs_.emplace(oid, handle).first->second;
}

sim::Task<Result<Dfs::Entry>> Dfs::dir_get(daos::KvHandle& kv, const std::string& name) {
  ++stats_.lookups;
  auto value =
      co_await retrier_.run_result<std::string>([&] { return client_.kv_get(kv, name); });
  if (!value.is_ok()) co_return value.status();
  co_return parse_entry(value.value());
}

sim::Task<Result<Dfs::Entry>> Dfs::lookup(const std::string& normalized) {
  if (!mounted_) co_return Status::error(Errc::invalid, "dfs not mounted");
  Entry current{EntryType::directory, root_oid_};
  if (normalized == "/") co_return current;
  for (const std::string& component : split_path(normalized)) {
    if (current.type != EntryType::directory) {
      co_return Status::error(Errc::invalid, "not a directory in path: " + normalized);
    }
    auto kv = co_await dir_kv(current.oid);
    if (!kv.is_ok()) co_return kv.status();
    auto entry = co_await dir_get(*kv.value(), component);
    if (!entry.is_ok()) co_return entry.status();
    current = entry.value();
  }
  co_return current;
}

sim::Task<Result<Dfs::Resolved>> Dfs::resolve_parent(const std::string& normalized) {
  auto parent = parent_path(normalized);
  if (!parent.is_ok()) co_return parent.status();
  auto name = base_name(normalized);
  if (!name.is_ok()) co_return name.status();
  auto entry = co_await lookup(parent.value());
  if (!entry.is_ok()) co_return entry.status();
  if (entry.value().type != EntryType::directory) {
    co_return Status::error(Errc::invalid, "not a directory: " + parent.value());
  }
  auto kv = co_await dir_kv(entry.value().oid);
  if (!kv.is_ok()) co_return kv.status();
  co_return Resolved{name.value(), kv.value()};
}

sim::Task<Status> Dfs::mkdir(const std::string& path) {
  obs::Span span("dfs.mkdir", "dfs", client_.trace_actor());
  auto norm = normalize_path(path);
  if (!norm.is_ok()) co_return norm.status();
  if (norm.value() == "/") co_return Status::error(Errc::already_exists, "the root exists");
  auto res = co_await resolve_parent(norm.value());
  if (!res.is_ok()) co_return res.status();
  const Entry e{EntryType::directory, next_oid(daos::ObjectType::key_value, config_.dir_class)};
  const std::string record = serialize_entry(e);
  const Status st = co_await retrier_.run(
      [&] { return client_.kv_put_if_absent(*res.value().parent_kv, res.value().name, record); });
  if (st.is_ok()) ++stats_.mkdirs;
  co_return st;
}

sim::Task<Result<File>> Dfs::create(const std::string& path) {
  obs::Span span("dfs.create", "dfs", client_.trace_actor());
  auto norm = normalize_path(path);
  if (!norm.is_ok()) co_return norm.status();
  if (norm.value() == "/") co_return Status::error(Errc::invalid, "cannot create the root");
  auto res = co_await resolve_parent(norm.value());
  if (!res.is_ok()) co_return res.status();
  daos::KvHandle& parent_kv = *res.value().parent_kv;
  const std::string name = res.value().name;

  const Entry e{EntryType::file, next_oid(daos::ObjectType::array, config_.file_class)};
  const std::string record = serialize_entry(e);
  const Status reserved =
      co_await retrier_.run([&] { return client_.kv_put_if_absent(parent_kv, name, record); });
  if (!reserved.is_ok()) co_return reserved;

  // The name is ours; materialise the file's Array.  The oid is fresh, so
  // already_exists here means another mount shares this rank.
  const daos::ObjectId oid = e.oid;
  auto arr = co_await retrier_.run_result<daos::ArrayHandle>(
      [&] { return client_.array_create(cont_, oid); });
  if (!arr.is_ok()) co_return arr.status();
  ++stats_.creates;
  co_return File{arr.value()};
}

sim::Task<Result<File>> Dfs::open(const std::string& path) {
  obs::Span span("dfs.open", "dfs", client_.trace_actor());
  auto norm = normalize_path(path);
  if (!norm.is_ok()) co_return norm.status();
  auto entry = co_await lookup(norm.value());
  if (!entry.is_ok()) co_return entry.status();
  if (entry.value().type != EntryType::file) {
    co_return Status::error(Errc::invalid, "is a directory: " + norm.value());
  }
  const daos::ObjectId oid = entry.value().oid;
  auto arr = co_await retrier_.run_result<daos::ArrayHandle>(
      [&] { return client_.array_open(cont_, oid); });
  if (!arr.is_ok()) co_return arr.status();
  ++stats_.opens;
  co_return File{arr.value()};
}

sim::Task<Status> Dfs::write(File& file, Bytes offset, const std::uint8_t* data, Bytes len) {
  obs::Span span("dfs.write", "dfs", client_.trace_actor(), 0, static_cast<double>(len));
  if (!file.valid()) co_return Status::error(Errc::invalid, "write on a closed dfs file");
  const Status st =
      co_await retrier_.run([&] { return client_.array_write(file.array, offset, data, len); });
  if (st.is_ok()) {
    ++stats_.writes;
    stats_.bytes_written += len;
  }
  co_return st;
}

sim::Task<Result<Bytes>> Dfs::read(File& file, Bytes offset, std::uint8_t* out, Bytes len) {
  obs::Span span("dfs.read", "dfs", client_.trace_actor(), 0, static_cast<double>(len));
  if (!file.valid()) co_return Status::error(Errc::invalid, "read on a closed dfs file");
  auto n = co_await retrier_.run_result<Bytes>(
      [&] { return client_.array_read(file.array, offset, out, len); });
  if (n.is_ok()) {
    ++stats_.reads;
    stats_.bytes_read += n.value();
  }
  co_return n;
}

sim::Task<Status> Dfs::rename(const std::string& from, const std::string& to) {
  obs::Span span("dfs.rename", "dfs", client_.trace_actor());
  auto from_norm = normalize_path(from);
  if (!from_norm.is_ok()) co_return from_norm.status();
  auto to_norm = normalize_path(to);
  if (!to_norm.is_ok()) co_return to_norm.status();
  if (from_norm.value() == "/" || to_norm.value() == "/") {
    co_return Status::error(Errc::invalid, "cannot rename the root");
  }
  auto src = co_await resolve_parent(from_norm.value());
  if (!src.is_ok()) co_return src.status();
  auto entry = co_await dir_get(*src.value().parent_kv, src.value().name);
  if (!entry.is_ok()) co_return entry.status();
  // Same-path rename is a no-op, but only for a source that exists (POSIX
  // rename("a", "a") on a missing file is ENOENT, not success).
  if (from_norm.value() == to_norm.value()) {
    ++stats_.renames;
    co_return Status::ok();
  }
  if (entry.value().type == EntryType::directory &&
      path_within(to_norm.value(), from_norm.value())) {
    co_return Status::error(Errc::invalid, "cannot move a directory into its own subtree");
  }

  auto dst = co_await resolve_parent(to_norm.value());
  if (!dst.is_ok()) co_return dst.status();
  daos::ObjectId replaced_file_oid;
  bool replaced_file = false;
  {
    auto existing = co_await dir_get(*dst.value().parent_kv, dst.value().name);
    if (existing.is_ok()) {
      if (existing.value().type == EntryType::directory) {
        co_return Status::error(Errc::already_exists,
                                "rename target is a directory: " + to_norm.value());
      }
      replaced_file_oid = existing.value().oid;
      replaced_file = true;
    } else if (existing.status().code() != Errc::not_found) {
      co_return existing.status();
    }
  }

  // Publish at the destination first, then drop the source: a fault between
  // the two leaves both names resolving to the same object (retryable),
  // never a window where the object is unreachable.
  const std::string record = serialize_entry(entry.value());
  daos::KvHandle& dst_kv = *dst.value().parent_kv;
  const std::string dst_name = dst.value().name;
  const Status put = co_await retrier_.run([&] { return client_.kv_put(dst_kv, dst_name, record); });
  if (!put.is_ok()) co_return put;
  daos::KvHandle& src_kv = *src.value().parent_kv;
  const std::string src_name = src.value().name;
  const Status removed =
      co_await retrier_.run([&] { return client_.kv_remove(src_kv, src_name); });
  if (!removed.is_ok()) co_return removed;

  if (replaced_file) {
    const Status punched = co_await retrier_.run(
        [&] { return client_.array_destroy(cont_, replaced_file_oid); });
    if (!punched.is_ok() && punched.code() != Errc::not_found) co_return punched;
  }
  ++stats_.renames;
  co_return Status::ok();
}

sim::Task<Result<std::vector<std::string>>> Dfs::readdir(const std::string& path) {
  obs::Span span("dfs.readdir", "dfs", client_.trace_actor());
  auto norm = normalize_path(path);
  if (!norm.is_ok()) co_return norm.status();
  auto entry = co_await lookup(norm.value());
  if (!entry.is_ok()) co_return entry.status();
  if (entry.value().type != EntryType::directory) {
    co_return Status::error(Errc::invalid, "not a directory: " + norm.value());
  }
  auto kv = co_await dir_kv(entry.value().oid);
  if (!kv.is_ok()) co_return kv.status();
  auto names = co_await client_.kv_list(*kv.value());
  ++stats_.readdirs;
  co_return names;
}

sim::Task<Status> Dfs::unlink(const std::string& path) {
  obs::Span span("dfs.unlink", "dfs", client_.trace_actor());
  auto norm = normalize_path(path);
  if (!norm.is_ok()) co_return norm.status();
  if (norm.value() == "/") co_return Status::error(Errc::invalid, "cannot unlink the root");
  auto res = co_await resolve_parent(norm.value());
  if (!res.is_ok()) co_return res.status();
  auto entry = co_await dir_get(*res.value().parent_kv, res.value().name);
  if (!entry.is_ok()) co_return entry.status();

  if (entry.value().type == EntryType::directory) {
    auto kv = co_await dir_kv(entry.value().oid);
    if (!kv.is_ok()) co_return kv.status();
    const auto names = co_await client_.kv_list(*kv.value());
    if (!names.empty()) {
      co_return Status::error(Errc::invalid, "directory not empty: " + norm.value());
    }
  }

  daos::KvHandle& parent_kv = *res.value().parent_kv;
  const std::string name = res.value().name;
  const Status removed = co_await retrier_.run([&] { return client_.kv_remove(parent_kv, name); });
  if (!removed.is_ok()) co_return removed;
  if (entry.value().type == EntryType::file) {
    const daos::ObjectId oid = entry.value().oid;
    const Status punched =
        co_await retrier_.run([&] { return client_.array_destroy(cont_, oid); });
    if (!punched.is_ok() && punched.code() != Errc::not_found) co_return punched;
  }
  ++stats_.unlinks;
  co_return Status::ok();
}

sim::Task<void> Dfs::close(File& file) { co_await client_.array_close(file.array); }

sim::Task<Result<daos::Epoch>> Dfs::commit() {
  if (!mounted_) co_return Status::error(Errc::invalid, "dfs not mounted");
  co_return co_await retrier_.run_result<daos::Epoch>(
      [&] { return client_.cont_commit(cont_); });
}

}  // namespace nws::dfs
