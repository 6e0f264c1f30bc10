// Tests for the dfs namespace (docs/DFS.md): path handling, mount/format/
// remount semantics, operation semantics and error paths, the
// POSIX-emulation adapter, the file-per-forecast mapping, and a seeded
// randomized property sweep against an in-memory reference file system —
// clean, under transient fault injection, and across a permanent target
// loss with replicated object classes (zero divergence, zero lost files).
//
// Reproduce one property case with
//   NWS_DFS_SEED=<seed> NWS_DFS_COUNT=1 ./dfs_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "dfs/dfs.h"
#include "dfs/file_fdb.h"
#include "dfs/path.h"
#include "dfs/posix.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/sync.h"

// gtest ASSERT_* expands to a plain `return`, which is ill-formed inside a
// coroutine; this is the co_return-compatible equivalent.
#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    if (!(cond)) {                                    \
      ADD_FAILURE() << "assertion failed: " << #cond; \
      co_return;                                      \
    }                                                 \
  } while (0)

namespace nws::dfs {
namespace {

using nws::operator""_KiB;
using nws::operator""_MiB;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  // NWSLINT(allow:determinism): replay-knob helper; every call site passes an NWS_* literal
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

daos::ClusterConfig test_config() {
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  cfg.payload_mode = daos::PayloadMode::full;
  return cfg;
}

/// Runs `body` as a single simulated client process.
template <typename Body>
void run_client(daos::Cluster& cluster, Body body) {
  auto proc = [](daos::Cluster& cl, Body b) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    co_await b(client);
  };
  cluster.scheduler().spawn(proc(cluster, std::move(body)));
  cluster.scheduler().run();
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Writes the whole contents of `data` to `path` through `fs` (create,
/// write, close).
sim::Task<Status> put_file(Dfs& fs, const std::string& path, const std::string& data) {
  auto file = co_await fs.create(path);
  if (!file.is_ok()) co_return file.status();
  const auto raw = bytes_of(data);
  const Status st = co_await fs.write(file.value(), 0, raw.data(), raw.size());
  co_await fs.close(file.value());
  co_return st;
}

/// Reads the whole file at `path` into a buffer larger than any test file;
/// a read that fills the buffer could have cut the file short.
sim::Task<Result<std::string>> get_file(Dfs& fs, const std::string& path) {
  constexpr Bytes kCapacity = 64_KiB;
  auto file = co_await fs.open(path);
  if (!file.is_ok()) co_return file.status();
  std::string out(static_cast<std::size_t>(kCapacity), '\0');
  auto n = co_await fs.read(file.value(), 0, reinterpret_cast<std::uint8_t*>(out.data()),
                            kCapacity);
  co_await fs.close(file.value());
  if (!n.is_ok()) co_return n.status();
  EXPECT_LT(n.value(), kCapacity) << path << " may be larger than the read buffer";
  out.resize(static_cast<std::size_t>(n.value()));
  co_return out;
}

// ---- path handling ----------------------------------------------------------

TEST(DfsPathTest, NormalizeCollapsesAndValidates) {
  EXPECT_EQ(normalize_path("/").value(), "/");
  EXPECT_EQ(normalize_path("/a//b/").value(), "/a/b");
  EXPECT_EQ(normalize_path("///").value(), "/");
  EXPECT_EQ(normalize_path("/a/b").value(), "/a/b");
  EXPECT_EQ(normalize_path("").status().code(), Errc::invalid);
  EXPECT_EQ(normalize_path("a/b").status().code(), Errc::invalid);
  EXPECT_EQ(normalize_path("/a/./b").status().code(), Errc::invalid);
  EXPECT_EQ(normalize_path("/a/../b").status().code(), Errc::invalid);
}

TEST(DfsPathTest, SplitParentBase) {
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_EQ(split_path("/a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parent_path("/a/b").value(), "/a");
  EXPECT_EQ(parent_path("/a").value(), "/");
  EXPECT_EQ(parent_path("/").status().code(), Errc::invalid);
  EXPECT_EQ(base_name("/a/b").value(), "b");
  EXPECT_EQ(base_name("/").status().code(), Errc::invalid);
}

TEST(DfsPathTest, PathWithin) {
  EXPECT_TRUE(path_within("/a", "/a"));
  EXPECT_TRUE(path_within("/a/b", "/a"));
  EXPECT_FALSE(path_within("/ab", "/a"));
  EXPECT_FALSE(path_within("/a", "/a/b"));
  EXPECT_TRUE(path_within("/x", "/"));
}

// ---- mount / format / remount ----------------------------------------------

TEST(DfsMountTest, CtorRejectsReservedRankAndEcDirClass) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
  EXPECT_THROW(Dfs(client, {}, 0xFFFFFFFFu), std::invalid_argument);
  DfsConfig ec;
  ec.dir_class = daos::ObjectClass::EC_2P1;
  EXPECT_THROW(Dfs(client, ec, 1), std::invalid_argument);
}

TEST(DfsMountTest, OpsBeforeMountAndDoubleMountFail) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    EXPECT_EQ((co_await fs.mkdir("/d")).code(), Errc::invalid);
    EXPECT_EQ((co_await fs.create("/f")).status().code(), Errc::invalid);
    CO_ASSERT_TRUE((co_await fs.mount("m0")).is_ok());
    EXPECT_TRUE(fs.mounted());
    EXPECT_EQ((co_await fs.mount("m0")).code(), Errc::invalid);
  });
}

TEST(DfsMountTest, RemountWithMismatchedDirClassFails) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs a(client, {}, 1);  // formats with the default (SX) dir_class
    CO_ASSERT_TRUE((co_await a.mount("m2")).is_ok());

    DfsConfig other;
    other.dir_class = daos::ObjectClass::S1;
    Dfs b(client, other, 2);
    const Status st = co_await b.mount("m2");
    EXPECT_EQ(st.code(), Errc::invalid);
    EXPECT_NE(st.to_string().find("dir_class mismatch"), std::string::npos) << st.to_string();
    EXPECT_FALSE(b.mounted());
  });
}

TEST(DfsMountTest, CorruptedMagicRejectsTheContainer) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    // Scribble over the well-known superblock before any dfs mount.
    co_await client.pool_connect();
    const daos::Uuid uuid = daos::Uuid::from_string_md5("dfs:m3");
    CO_ASSERT_TRUE((co_await client.cont_create(uuid)).is_ok());
    auto cont = co_await client.cont_open(uuid);
    CO_ASSERT_TRUE(cont.is_ok());
    const daos::ObjectId super_oid = daos::ObjectId::generate(
        0xFFFFFFFFu, 0, daos::ObjectType::key_value, daos::ObjectClass::SX);
    daos::KvHandle super = co_await client.kv_open(cont.value(), super_oid);
    CO_ASSERT_TRUE((co_await client.kv_put(super, "superblock", "not-a-dfs|SX")).is_ok());

    Dfs fs(client, {}, 1);
    const Status st = co_await fs.mount("m3");
    EXPECT_EQ(st.code(), Errc::invalid);
    EXPECT_NE(st.to_string().find("bad magic"), std::string::npos) << st.to_string();
  });
}

TEST(DfsMountTest, ConcurrentMountsCollideOnOneNamespace) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  bool done_a = false;
  bool done_b = false;
  auto proc = [](daos::Cluster& cl, std::uint32_t rank, bool* done) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, rank), rank);
    Dfs fs(client, {}, rank + 1);
    CO_ASSERT_TRUE((co_await fs.mount("shared")).is_ok());
    const std::string path = "/r" + std::to_string(rank);
    CO_ASSERT_TRUE((co_await put_file(fs, path, "x")).is_ok());
    *done = true;
  };
  sched.spawn(proc(cluster, 0, &done_a));
  sched.spawn(proc(cluster, 1, &done_b));
  sched.run();
  ASSERT_TRUE(done_a && done_b);
  // Both mounts landed in the same container: a third mount sees both files.
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 9);
    CO_ASSERT_TRUE((co_await fs.mount("shared")).is_ok());
    auto names = co_await fs.readdir("/");
    CO_ASSERT_TRUE(names.is_ok());
    EXPECT_EQ(names.value(), (std::vector<std::string>{"r0", "r1"}));
  });
}

/// What a race of first mounts left: each mount's status in spawn order, and
/// the mounts' summed stats.
struct MountRace {
  std::vector<Status> mounts;
  DfsStats stats;
};

/// Races one first mount of `name` per entry of `classes` (mount i with that
/// dir_class), all spawned at t = 0, each with its own Client and rank.  A
/// mount that succeeds writes the file "/r<i>".
MountRace race_first_mounts(daos::Cluster& cluster, const std::string& name,
                            const std::vector<daos::ObjectClass>& classes) {
  MountRace race;
  race.mounts.resize(classes.size(), Status::error(Errc::invalid, "mount never finished"));
  auto proc = [](daos::Cluster& cl, const std::string& fs_name, daos::ObjectClass dir_class,
                 std::uint32_t i, MountRace& out) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, i), i);
    DfsConfig config;
    config.dir_class = dir_class;
    Dfs fs(client, config, i + 1);
    const Status mounted = co_await fs.mount(fs_name);
    if (mounted.is_ok()) {
      EXPECT_TRUE((co_await put_file(fs, "/r" + std::to_string(i), "x")).is_ok()) << i;
    }
    out.mounts[i] = mounted;
    out.stats += fs.stats();
  };
  for (std::uint32_t i = 0; i < classes.size(); ++i) {
    cluster.scheduler().spawn(proc(cluster, name, classes[i], i, race));
  }
  cluster.scheduler().run();
  return race;
}

/// The names "r0".."r<n-1>" in readdir's lexicographic order.
std::vector<std::string> racer_files(std::uint32_t n) {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < n; ++i) names.push_back(std::string("r") += std::to_string(i));
  std::sort(names.begin(), names.end());
  return names;
}

/// Mounts `name` once more and expects "/" to list exactly `want`.
void expect_root_lists(daos::Cluster& cluster, const std::string& name,
                       const std::vector<std::string>& want) {
  run_client(cluster, [&name, &want](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 99);
    CO_ASSERT_TRUE((co_await fs.mount(name)).is_ok());
    auto names = co_await fs.readdir("/");
    CO_ASSERT_TRUE(names.is_ok());
    EXPECT_EQ(names.value(), want);
  });
}

TEST(DfsMountTest, RacingFirstMountsAllSucceed) {
  // Sixteen first mounts of a fresh name: the superblock is one record, so
  // a mount that lost the format race reads the whole record or nothing.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  const MountRace race =
      race_first_mounts(cluster, "race", std::vector<daos::ObjectClass>(16, daos::ObjectClass::SX));
  for (std::size_t i = 0; i < race.mounts.size(); ++i) {
    EXPECT_TRUE(race.mounts[i].is_ok()) << "mount " << i << ": " << race.mounts[i].to_string();
  }
  expect_root_lists(cluster, "race", racer_files(16));
}

TEST(DfsMountTest, RacingFormattersAgreeOnOneDirClass) {
  // SX and S1 first mounts interleaved: whichever record lands first is the
  // namespace's, every mount of that class succeeds, and every mount of the
  // other class is refused rather than formatting a second namespace.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  std::vector<daos::ObjectClass> classes;
  for (int i = 0; i < 8; ++i) {
    classes.push_back(daos::ObjectClass::SX);
    classes.push_back(daos::ObjectClass::S1);
  }
  const MountRace race = race_first_mounts(cluster, "classes", classes);
  const std::size_t first_ok = static_cast<std::size_t>(
      std::find_if(race.mounts.begin(), race.mounts.end(), [](const Status& st) { return st.is_ok(); }) -
      race.mounts.begin());
  ASSERT_LT(first_ok, race.mounts.size()) << "no mount succeeded";
  const daos::ObjectClass winner = classes[first_ok];
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const Status& st = race.mounts[i];
    if (classes[i] == winner) {
      EXPECT_TRUE(st.is_ok()) << "mount " << i << ": " << st.to_string();
    } else {
      EXPECT_EQ(st.code(), Errc::invalid) << "mount " << i;
      EXPECT_NE(st.to_string().find("dir_class mismatch"), std::string::npos) << st.to_string();
    }
  }
}

// ---- operation semantics ----------------------------------------------------

TEST(DfsOpsTest, MkdirCreateWriteReadRoundTrip) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("ops")).is_ok());
    CO_ASSERT_TRUE((co_await fs.mkdir("/a")).is_ok());
    CO_ASSERT_TRUE((co_await fs.mkdir("/a/b")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/a/b/f", "hello dfs")).is_ok());
    EXPECT_EQ((co_await get_file(fs, "/a/b/f")).value(), "hello dfs");

    // Types and absence: a file opens, a directory is invalid to open but
    // lists, a missing path is not_found.
    auto file = co_await fs.open("/a/b/f");
    CO_ASSERT_TRUE(file.is_ok());
    co_await fs.close(file.value());
    EXPECT_EQ((co_await fs.open("/a")).status().code(), Errc::invalid);
    auto names = co_await fs.readdir("/a");
    CO_ASSERT_TRUE(names.is_ok());
    EXPECT_EQ(names.value(), (std::vector<std::string>{"b"}));
    EXPECT_EQ((co_await fs.open("/missing")).status().code(), Errc::not_found);

    const DfsStats& st = fs.stats();
    EXPECT_EQ(st.mkdirs, 2u);
    EXPECT_EQ(st.creates, 1u);
    EXPECT_GE(st.lookups, 4u);
    EXPECT_EQ(st.bytes_written, 9u);
    obs::MetricsSnapshot m;
    st.fold_into(m);
    EXPECT_TRUE(m.has("dfs.mkdirs"));
    EXPECT_TRUE(m.has("dfs.bytes_written"));
    EXPECT_FALSE(m.has("dfs.retries"));  // zero counters stay unset
  });
}

TEST(DfsOpsTest, ExclusiveCreateAndDirectoryErrors) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("excl")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/f", "v1")).is_ok());
    EXPECT_EQ((co_await fs.create("/f")).status().code(), Errc::already_exists);
    auto again = co_await fs.open("/f");
    CO_ASSERT_TRUE(again.is_ok());
    co_await fs.close(again.value());
    EXPECT_EQ((co_await fs.write(again.value(), 0, nullptr, 0)).code(), Errc::invalid);
    EXPECT_EQ((co_await get_file(fs, "/f")).value(), "v1");

    CO_ASSERT_TRUE((co_await fs.mkdir("/d")).is_ok());
    EXPECT_EQ((co_await fs.mkdir("/d")).code(), Errc::already_exists);
    EXPECT_EQ((co_await fs.mkdir("/")).code(), Errc::already_exists);
    EXPECT_EQ((co_await fs.create("/d")).status().code(), Errc::already_exists);
    EXPECT_EQ((co_await fs.open("/d")).status().code(), Errc::invalid);
    EXPECT_EQ((co_await fs.mkdir("/nope/child")).code(), Errc::not_found);
    EXPECT_EQ((co_await fs.readdir("/f")).status().code(), Errc::invalid);
  });
}

TEST(DfsOpsTest, LostConditionalInsertReadsNothingBack) {
  // An injected fault fails an insert before it applies, so already_exists
  // always names another mount's entry: a mount that loses mkdir or an
  // exclusive create pays the conditional insert alone, and no kv_get.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("lost")).is_ok());
    CO_ASSERT_TRUE((co_await fs.mkdir("/d")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/f", "x")).is_ok());
  });
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 2);
    CO_ASSERT_TRUE((co_await fs.mount("lost")).is_ok());
    const std::uint64_t gets = client.stats().kv_gets;
    EXPECT_EQ((co_await fs.mkdir("/d")).code(), Errc::already_exists);
    EXPECT_EQ(client.stats().kv_gets, gets);
    EXPECT_EQ((co_await fs.create("/f")).status().code(), Errc::already_exists);
    EXPECT_EQ(client.stats().kv_gets, gets);
  });
}

TEST(DfsOpsTest, DuplicateRankCreateFailsInsteadOfAliasing) {
  // A rank namespaces a mount's object ids, so two mounts sharing one draw
  // the same fresh Array id.  The second mount's create must fail rather
  // than bind its new name to the first mount's file, where put_file's write
  // would land, and must release the name it reserved: left in place it
  // would open the first mount's file.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 3);
    CO_ASSERT_TRUE((co_await fs.mount("dup")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/a", "AAAA")).is_ok());
  });
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 3);
    CO_ASSERT_TRUE((co_await fs.mount("dup")).is_ok());
    EXPECT_EQ((co_await put_file(fs, "/b", "BB")).code(), Errc::already_exists);
    EXPECT_EQ((co_await get_file(fs, "/a")).value(), "AAAA");
    EXPECT_EQ((co_await fs.open("/b")).status().code(), Errc::not_found);
    auto names = co_await fs.readdir("/");
    CO_ASSERT_TRUE(names.is_ok());
    EXPECT_EQ(names.value(), (std::vector<std::string>{"a"}));
  });
}

TEST(DfsOpsTest, RenameMovesReplacesAndGuardsSubtrees) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("ren")).is_ok());
    CO_ASSERT_TRUE((co_await fs.mkdir("/a")).is_ok());
    CO_ASSERT_TRUE((co_await fs.mkdir("/a/b")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/a/b/f", "payload")).is_ok());

    // Directory rename moves the whole subtree (entry move, children intact).
    CO_ASSERT_TRUE((co_await fs.rename("/a/b", "/c")).is_ok());
    EXPECT_EQ((co_await get_file(fs, "/c/f")).value(), "payload");
    EXPECT_EQ((co_await fs.readdir("/a/b")).status().code(), Errc::not_found);

    // File rename replaces an existing destination file.
    CO_ASSERT_TRUE((co_await put_file(fs, "/old", "new-bytes")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/victim", "victim-bytes")).is_ok());
    CO_ASSERT_TRUE((co_await fs.rename("/old", "/victim")).is_ok());
    EXPECT_EQ((co_await get_file(fs, "/victim")).value(), "new-bytes");
    EXPECT_EQ((co_await fs.open("/old")).status().code(), Errc::not_found);

    // Guards: roots, own subtree, directory destinations, missing source.
    EXPECT_EQ((co_await fs.rename("/", "/x")).code(), Errc::invalid);
    EXPECT_EQ((co_await fs.rename("/c", "/c/inside")).code(), Errc::invalid);
    CO_ASSERT_TRUE((co_await fs.mkdir("/d2")).is_ok());
    EXPECT_EQ((co_await fs.rename("/c", "/d2")).code(), Errc::already_exists);
    EXPECT_EQ((co_await fs.rename("/ghost", "/x")).code(), Errc::not_found);
    EXPECT_TRUE((co_await fs.rename("/c", "/c")).is_ok());  // no-op
    // "/cc" is not inside "/c": prefix guard is component-wise.
    CO_ASSERT_TRUE((co_await fs.rename("/c", "/cc")).is_ok());
    EXPECT_EQ((co_await get_file(fs, "/cc/f")).value(), "payload");
  });
}

TEST(DfsOpsTest, UnlinkFilesAndEmptyDirectoriesOnly) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("unlink")).is_ok());
    CO_ASSERT_TRUE((co_await fs.mkdir("/d")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/d/f", "x")).is_ok());
    EXPECT_EQ((co_await fs.unlink("/d")).code(), Errc::invalid);  // not empty
    EXPECT_EQ((co_await fs.unlink("/")).code(), Errc::invalid);
    EXPECT_EQ((co_await fs.unlink("/ghost")).code(), Errc::not_found);
    CO_ASSERT_TRUE((co_await fs.unlink("/d/f")).is_ok());
    EXPECT_EQ((co_await fs.open("/d/f")).status().code(), Errc::not_found);
    CO_ASSERT_TRUE((co_await fs.unlink("/d")).is_ok());
    auto names = co_await fs.readdir("/");
    CO_ASSERT_TRUE(names.is_ok());
    EXPECT_TRUE(names.value().empty());
  });
}

TEST(DfsOpsTest, SummedStatsAddAndFoldOnlyNonZeroCounters) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs a(client, {}, 1);
    Dfs b(client, {}, 2);
    CO_ASSERT_TRUE((co_await a.mount("sum")).is_ok());
    CO_ASSERT_TRUE((co_await b.mount("sum")).is_ok());
    CO_ASSERT_TRUE((co_await a.mkdir("/d")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(a, "/d/f", "abc")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(b, "/g", "hello")).is_ok());
    EXPECT_EQ((co_await get_file(b, "/d/f")).value(), "abc");
    CO_ASSERT_TRUE((co_await b.rename("/g", "/h")).is_ok());
    CO_ASSERT_TRUE((co_await b.readdir("/")).is_ok());
    CO_ASSERT_TRUE((co_await b.unlink("/h")).is_ok());

    DfsStats sum = a.stats();
    sum += b.stats();
    const DfsStats& x = a.stats();
    const DfsStats& y = b.stats();
    EXPECT_EQ(sum.lookups, x.lookups + y.lookups);
    EXPECT_EQ(sum.mkdirs, 1u);
    EXPECT_EQ(sum.creates, 2u);
    EXPECT_EQ(sum.opens, 1u);
    EXPECT_EQ(sum.reads, 1u);
    EXPECT_EQ(sum.writes, 2u);
    EXPECT_EQ(sum.renames, 1u);
    EXPECT_EQ(sum.readdirs, 1u);
    EXPECT_EQ(sum.unlinks, 1u);
    EXPECT_EQ(sum.bytes_written, 8u);
    EXPECT_EQ(sum.bytes_read, 3u);
    EXPECT_EQ(sum.retries, 0u);

    obs::MetricsSnapshot m;
    sum.fold_into(m);
    EXPECT_EQ(m.value("dfs.lookups"), static_cast<double>(x.lookups + y.lookups));
    EXPECT_EQ(m.value("dfs.creates"), 2.0);
    EXPECT_EQ(m.value("dfs.bytes_written"), 8.0);
    EXPECT_EQ(m.value("dfs.bytes_read"), 3.0);
    EXPECT_TRUE(m.has("dfs.renames"));
    EXPECT_TRUE(m.has("dfs.unlinks"));
    EXPECT_FALSE(m.has("dfs.retries"));  // zero in both mounts
  });
}

TEST(DfsOpsTest, MalformedEntryRecordsReadBackInvalid) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("bad")).is_ok());
    CO_ASSERT_TRUE((co_await put_file(fs, "/good", "ok")).is_ok());

    // Scribble records straight into the root directory KV, whose oid is
    // derived from the reserved namespace and the dir_class.
    const daos::Uuid uuid = daos::Uuid::from_string_md5("dfs:bad");
    auto cont = co_await client.cont_open(uuid);
    CO_ASSERT_TRUE(cont.is_ok());
    const daos::ObjectId root_oid = daos::ObjectId::generate(
        0xFFFFFFFFu, 1, daos::ObjectType::key_value, daos::ObjectClass::SX);
    daos::KvHandle root = co_await client.kv_open(cont.value(), root_oid);
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"empty", ""},           {"type", "x|1|2"},   {"no-oid", "f|"},
        {"no-lo", "f|12"},       {"hi", "f|1x|2"},    {"lo", "d|1|"},
        {"old-layout", "f|1|2|1048576"},
    };
    for (const auto& entry : bad) {
      CO_ASSERT_TRUE((co_await client.kv_put(root, entry.first, entry.second)).is_ok());
    }
    for (const auto& entry : bad) {
      EXPECT_EQ((co_await fs.open("/" + entry.first)).status().code(), Errc::invalid)
          << entry.first << " = '" << entry.second << "'";
    }
    EXPECT_EQ((co_await get_file(fs, "/good")).value(), "ok");
  });
}

// ---- POSIX-emulation adapter ------------------------------------------------

TEST(PosixFsTest, FdTableOpenCloseSemantics) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("pfd")).is_ok());
    PosixFs pfs(fs);
    auto fd1 = co_await pfs.open("/f", {.create = true});
    CO_ASSERT_TRUE(fd1.is_ok());
    EXPECT_GE(fd1.value(), 3);
    auto fd2 = co_await pfs.open("/f", {});
    CO_ASSERT_TRUE(fd2.is_ok());
    EXPECT_NE(fd1.value(), fd2.value());
    EXPECT_EQ(pfs.stats().peak_open_handles, 2u);
    EXPECT_TRUE((co_await pfs.close(fd1.value())).is_ok());
    EXPECT_EQ((co_await pfs.close(fd1.value())).code(), Errc::invalid);
    EXPECT_EQ((co_await pfs.pwrite(fd1.value(), 0, nullptr, 1)).code(), Errc::invalid);
    EXPECT_TRUE((co_await pfs.close(fd2.value())).is_ok());
    EXPECT_EQ((co_await pfs.open("/f", {.create = true})).status().code(),
              Errc::already_exists);
    EXPECT_EQ((co_await pfs.open("/ghost", {})).status().code(), Errc::not_found);
    EXPECT_EQ(pfs.stats().meta_ops, 4u);  // every open, even failing ones
  });
}

TEST(PosixFsTest, AlignedWritesPassThrough) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("palign")).is_ok());
    PosixFs pfs(fs);
    auto fd = co_await pfs.open("/f", {.create = true});
    CO_ASSERT_TRUE(fd.is_ok());
    const std::vector<std::uint8_t> page(8192, 0xAB);
    CO_ASSERT_TRUE((co_await pfs.pwrite(fd.value(), 0, page.data(), page.size())).is_ok());
    EXPECT_EQ(pfs.stats().rmw_reads, 0u);
    EXPECT_EQ(pfs.stats().alignment_bytes, 0u);
    // An append starting at offset 0 of a fresh region never pads the tail
    // past the write end (that would fabricate file bytes).
    auto fd2 = co_await pfs.open("/g", {.create = true});
    CO_ASSERT_TRUE(fd2.is_ok());
    CO_ASSERT_TRUE((co_await pfs.pwrite(fd2.value(), 0, page.data(), 1000)).is_ok());
    EXPECT_EQ(pfs.stats().alignment_bytes, 0u);
    // A read past the end clamps to the file size.
    std::vector<std::uint8_t> got(page.size());
    EXPECT_EQ((co_await pfs.pread(fd2.value(), 0, got.data(), got.size())).value(), 1000u);
  });
}

TEST(PosixFsTest, UnalignedOverwritePaysReadModifyWrite) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("prmw")).is_ok());
    PosixFs pfs(fs);
    auto fd = co_await pfs.open("/f", {.create = true});
    CO_ASSERT_TRUE(fd.is_ok());
    std::vector<std::uint8_t> base(8192);
    for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<std::uint8_t>(i);
    CO_ASSERT_TRUE((co_await pfs.pwrite(fd.value(), 0, base.data(), base.size())).is_ok());

    // Overwrite [100, 1100) of existing data: widened to [0, 4096), with the
    // head [0,100) and tail [1100,4096) fragments read back first.
    const std::vector<std::uint8_t> patch(1000, 0xEE);
    CO_ASSERT_TRUE((co_await pfs.pwrite(fd.value(), 100, patch.data(), patch.size())).is_ok());
    EXPECT_EQ(pfs.stats().rmw_reads, 2u);
    EXPECT_EQ(pfs.stats().alignment_bytes, 4096u - 1000u);

    // A read past the end clamps to the file size: the widened write did
    // not grow the file.
    std::vector<std::uint8_t> got(2 * base.size());
    auto n = co_await pfs.pread(fd.value(), 0, got.data(), got.size());
    CO_ASSERT_TRUE(n.is_ok());
    CO_ASSERT_TRUE(n.value() == base.size());
    got.resize(base.size());
    std::vector<std::uint8_t> want = base;
    std::fill(want.begin() + 100, want.begin() + 1100, 0xEE);
    EXPECT_EQ(got, want);
  });
}

TEST(PosixFsTest, SharedMetadataLockSerialisesProcesses) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  sim::Mutex shared_meta(sched);
  PosixStats combined;
  auto proc = [](daos::Cluster& cl, sim::Mutex& lock, PosixStats* out,
                 std::uint32_t rank) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, rank), rank);
    Dfs fs(client, {}, rank + 1);
    CO_ASSERT_TRUE((co_await fs.mount("pmeta")).is_ok());
    PosixFs pfs(fs, {}, &lock);
    for (int i = 0; i < 4; ++i) {
      const std::string dir = "/r" + std::to_string(rank) + "-" + std::to_string(i);
      CO_ASSERT_TRUE((co_await pfs.mkdir(dir)).is_ok());
    }
    *out += pfs.stats();
  };
  sched.spawn(proc(cluster, shared_meta, &combined, 0));
  sched.spawn(proc(cluster, shared_meta, &combined, 1));
  sched.run();
  EXPECT_EQ(combined.meta_ops, 8u);
  ASSERT_EQ(combined.meta_wait_seconds.count(), 8u);
  // With both processes funnelling through one lock, someone must have
  // queued behind a mkdir in flight.
  double max_wait = 0.0;
  for (const double w : combined.meta_wait_seconds.samples()) max_wait = std::max(max_wait, w);
  EXPECT_GT(max_wait, 0.0);
  obs::MetricsSnapshot m;
  combined.fold_into(m);
  EXPECT_TRUE(m.has("dfs.posix.meta_ops"));
  EXPECT_TRUE(m.has("dfs.posix.meta_wait_seconds"));
}

// ---- file-per-forecast mapping ---------------------------------------------

TEST(ForecastFilesTest, FieldPathIsDeterministic) {
  const std::string p = ForecastFiles::field_path("fc1", "t=2,p=500");
  EXPECT_EQ(p, ForecastFiles::field_path("fc1", "t=2,p=500"));
  EXPECT_EQ(p.rfind("/fdb/", 0), 0u);
  EXPECT_NE(p, ForecastFiles::field_path("fc1", "t=3,p=500"));
}

TEST(ForecastFilesTest, RoundTripThroughDfsAndPosix) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, test_config());
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("ff")).is_ok());
    PosixFs pfs(fs);
    static constexpr bool kModes[] = {false, true};
    for (const bool posix_mode : kModes) {
      ForecastFiles files = posix_mode ? ForecastFiles(pfs) : ForecastFiles(fs);
      const std::string forecast = posix_mode ? "fcp" : "fcd";
      std::vector<std::uint8_t> payload(3000);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 31 + (posix_mode ? 7 : 0));
      }
      CO_ASSERT_TRUE(
          (co_await files.write_field(forecast, "k1", payload.data(), payload.size())).is_ok());
      CO_ASSERT_TRUE(
          (co_await files.write_field(forecast, "k2", payload.data(), payload.size())).is_ok());

      std::vector<std::uint8_t> got(payload.size());
      auto n = co_await files.read_field(forecast, "k1", got.data(), got.size());
      CO_ASSERT_TRUE(n.is_ok());
      EXPECT_EQ(n.value(), payload.size());
      EXPECT_EQ(got, payload);

      // The publish dance leaves no .tmp residue behind.
      auto names = co_await files.list_fields(forecast);
      CO_ASSERT_TRUE(names.is_ok());
      EXPECT_EQ(names.value().size(), 2u);

      CO_ASSERT_TRUE((co_await files.remove_field(forecast, "k1")).is_ok());
      EXPECT_EQ((co_await files.read_field(forecast, "k1", got.data(), got.size()))
                    .status()
                    .code(),
                Errc::not_found);
    }
  });
}

// ---- randomized property sweep against a reference file system --------------

/// In-memory reference: a set of directories and a path -> contents map.
struct RefFs {
  std::set<std::string> dirs{"/"};
  std::map<std::string, std::string> files;

  [[nodiscard]] bool is_dir(const std::string& p) const { return dirs.count(p) != 0; }
  [[nodiscard]] bool is_file(const std::string& p) const { return files.count(p) != 0; }
  [[nodiscard]] bool exists(const std::string& p) const { return is_dir(p) || is_file(p); }
  [[nodiscard]] bool parent_is_dir(const std::string& p) const {
    auto parent = parent_path(p);
    return parent.is_ok() && is_dir(parent.value());
  }
  [[nodiscard]] bool dir_empty(const std::string& p) const { return list(p).empty(); }

  [[nodiscard]] std::vector<std::string> list(const std::string& dir) const {
    const std::string prefix = dir == "/" ? "/" : dir + "/";
    std::set<std::string> names;
    const auto direct_child = [&](const std::string& p) {
      if (p.rfind(prefix, 0) != 0 || p == dir) return;
      const std::string rest = p.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.insert(rest);
    };
    for (const auto& d : dirs) direct_child(d);
    for (const auto& [f, _] : files) direct_child(f);
    return {names.begin(), names.end()};
  }

  /// write(offset, data) semantics: zero-fill any gap, never shrink.
  void write_at(const std::string& p, std::size_t offset, const std::string& data) {
    std::string& s = files[p];
    if (s.size() < offset + data.size()) s.resize(offset + data.size(), '\0');
    s.replace(offset, data.size(), data);
  }
};

std::string random_ref_path(Rng& rng) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  const std::size_t depth = 1 + rng.next_below(3);
  std::string p;
  for (std::size_t i = 0; i < depth; ++i) {
    p += "/";
    p += kNames[rng.next_below(4)];
  }
  return p;
}

std::string random_existing_file(Rng& rng, const RefFs& ref) {
  if (ref.files.empty()) return random_ref_path(rng);
  auto it = ref.files.begin();
  std::advance(it, static_cast<long>(rng.next_below(ref.files.size())));
  return it->first;
}

struct PropertyCaseConfig {
  daos::ClusterConfig cluster;
  DfsConfig dfs;
  std::size_t ops = 60;
  /// Permanently fail one target after the mutation phase; the audit remount
  /// must still read every byte (requires replicated object classes).
  bool kill_target = false;
};

/// One property case: `ops` random operations applied to both the dfs and
/// the reference model, success/failure compared per-op and full state
/// compared at the end (via a fresh audit mount, so the sweep also
/// exercises remount).
void run_property_case(std::uint64_t seed, const PropertyCaseConfig& pc) {
  SCOPED_TRACE("NWS_DFS_SEED=" + std::to_string(seed));
  daos::ClusterConfig cfg = pc.cluster;
  cfg.seed = seed;
  sim::Scheduler sched;
  daos::Cluster cluster(sched, cfg);
  RefFs ref;

  run_client(cluster, [&ref, &pc, seed](daos::Client& client) -> sim::Task<void> {
    Rng rng(mix64(seed ^ 0xdf5fe57ull));
    Dfs fs(client, pc.dfs, 1);
    CO_ASSERT_TRUE((co_await fs.mount("prop")).is_ok());
    for (std::size_t i = 0; i < pc.ops; ++i) {
      SCOPED_TRACE("op " + std::to_string(i));
      const std::uint64_t kind = rng.next_below(90);
      if (kind < 20) {  // mkdir
        const std::string p = random_ref_path(rng);
        const bool ref_ok = !ref.exists(p) && ref.parent_is_dir(p);
        EXPECT_EQ((co_await fs.mkdir(p)).is_ok(), ref_ok) << "mkdir " << p;
        if (ref_ok) ref.dirs.insert(p);
      } else if (kind < 45) {  // create (+ initial write)
        const std::string p = random_ref_path(rng);
        const std::string data = "c" + std::to_string(i) + ":" + p;
        const bool ref_ok = ref.parent_is_dir(p) && !ref.exists(p);
        EXPECT_EQ((co_await put_file(fs, p, data)).is_ok(), ref_ok) << "create " << p;
        if (ref_ok) ref.write_at(p, 0, data);
      } else if (kind < 60) {  // overwrite a random range of an existing file
        const std::string p = random_existing_file(rng, ref);
        const bool ref_ok = ref.is_file(p);
        auto file = co_await fs.open(p);
        EXPECT_EQ(file.is_ok(), ref_ok) << "open " << p;
        if (file.is_ok()) {
          const std::size_t cur = ref.files[p].size();
          const std::size_t offset = rng.next_below(cur + 20);
          const std::string data(1 + rng.next_below(40), static_cast<char>('A' + i % 26));
          const auto raw = bytes_of(data);
          EXPECT_TRUE((co_await fs.write(file.value(), offset, raw.data(), raw.size())).is_ok());
          co_await fs.close(file.value());
          ref.write_at(p, offset, data);
        }
      } else if (kind < 70) {  // rename a file
        const std::string from = random_existing_file(rng, ref);
        const std::string to = random_ref_path(rng);
        // Directory renames have their own unit tests; the sweep only models
        // file sources (plus missing-source error paths).
        if (ref.is_dir(from)) continue;
        const bool ref_ok =
            ref.is_file(from) &&
            (from == to || (!ref.is_dir(to) && ref.parent_is_dir(to)));
        EXPECT_EQ((co_await fs.rename(from, to)).is_ok(), ref_ok)
            << "rename " << from << " -> " << to;
        if (ref_ok && from != to) {
          ref.files[to] = ref.files[from];
          ref.files.erase(from);
        }
      } else if (kind < 80) {  // unlink
        std::string p = random_ref_path(rng);
        if (rng.next_below(2) == 0) p = random_existing_file(rng, ref);
        const bool ref_ok =
            ref.is_file(p) || (ref.is_dir(p) && p != "/" && ref.dir_empty(p));
        EXPECT_EQ((co_await fs.unlink(p)).is_ok(), ref_ok) << "unlink " << p;
        if (ref_ok) {
          ref.files.erase(p);
          ref.dirs.erase(p);
        }
      } else {  // readdir a random directory, compare listings exactly
        auto it = ref.dirs.begin();
        std::advance(it, static_cast<long>(rng.next_below(ref.dirs.size())));
        auto names = co_await fs.readdir(*it);
        if (!names.is_ok()) {
          ADD_FAILURE() << "readdir " << *it << ": " << names.status().to_string();
          co_return;
        }
        EXPECT_EQ(names.value(), ref.list(*it)) << "readdir " << *it;
      }
    }
  });

  if (pc.kill_target) {
    // One permanent target loss between mutation and audit: with replicated
    // classes every byte must still be readable after the pool-map exclusion.
    cluster.apply_permanent_failure(cluster.target_count() / 2);
  }

  // Audit through a fresh mount: every directory lists exactly the reference
  // entries and every file reads back byte-identical — zero lost files.
  run_client(cluster, [&ref, &pc](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, pc.dfs, 2);
    CO_ASSERT_TRUE((co_await fs.mount("prop")).is_ok());
    for (const auto& dir : ref.dirs) {
      auto names = co_await fs.readdir(dir);
      if (!names.is_ok()) {
        ADD_FAILURE() << "audit readdir " << dir << ": " << names.status().to_string();
        co_return;
      }
      EXPECT_EQ(names.value(), ref.list(dir)) << "audit readdir " << dir;
    }
    for (const auto& [path, contents] : ref.files) {
      auto got = co_await get_file(fs, path);
      if (!got.is_ok()) {
        ADD_FAILURE() << "audit read " << path << ": " << got.status().to_string();
        co_return;
      }
      EXPECT_EQ(got.value(), contents) << "audit read " << path;
    }
  });
}

TEST(DfsPropertyTest, RandomOpsMatchReferenceModel) {
  const std::uint64_t base_seed = env_u64("NWS_DFS_SEED", 20260808);
  const std::uint64_t cases = env_u64("NWS_DFS_COUNT", 4);
  for (std::uint64_t c = 0; c < cases; ++c) {
    PropertyCaseConfig pc;
    pc.cluster = test_config();
    run_property_case(base_seed + c, pc);
  }
}

TEST(DfsChaosTest, TransientFaultsNeverDiverge) {
  const std::uint64_t base_seed = env_u64("NWS_DFS_SEED", 977);
  const std::uint64_t cases = env_u64("NWS_DFS_COUNT", 2);
  for (std::uint64_t c = 0; c < cases; ++c) {
    PropertyCaseConfig pc;
    pc.cluster = test_config();
    pc.cluster.fault_spec.seed = base_seed + c;
    pc.cluster.fault_spec.transient_error_rate = 0.05;
    pc.cluster.fault_spec.rpc_drop_rate = 0.01;
    pc.ops = 40;
    run_property_case(base_seed + c, pc);
  }
}

TEST(DfsChaosTest, PermanentTargetLossLosesNothingUnderReplication) {
  const std::uint64_t base_seed = env_u64("NWS_DFS_SEED", 40812);
  const std::uint64_t cases = env_u64("NWS_DFS_COUNT", 2);
  for (std::uint64_t c = 0; c < cases; ++c) {
    PropertyCaseConfig pc;
    pc.cluster = test_config();
    pc.cluster.server_nodes = 2;
    pc.cluster.fault_spec.seed = base_seed + c;
    pc.cluster.fault_spec.transient_error_rate = 0.02;
    pc.dfs.file_class = daos::ObjectClass::RP_2;
    pc.dfs.dir_class = daos::ObjectClass::RP_2;
    pc.ops = 40;
    pc.kill_target = true;
    run_property_case(base_seed + c, pc);
  }
}

TEST(DfsChaosTest, RetriesSurfaceInStats) {
  daos::ClusterConfig cfg = test_config();
  cfg.seed = 7;
  cfg.fault_spec.seed = 7;
  cfg.fault_spec.transient_error_rate = 0.2;
  sim::Scheduler sched;
  daos::Cluster cluster(sched, cfg);
  run_client(cluster, [](daos::Client& client) -> sim::Task<void> {
    Dfs fs(client, {}, 1);
    CO_ASSERT_TRUE((co_await fs.mount("retry")).is_ok());
    for (int i = 0; i < 20; ++i) {
      CO_ASSERT_TRUE((co_await put_file(fs, "/f" + std::to_string(i), "x")).is_ok());
    }
    EXPECT_GT(fs.stats().retries, 0u);
    obs::MetricsSnapshot m;
    fs.stats().fold_into(m);
    EXPECT_TRUE(m.has("dfs.retries"));
  });
}

TEST(DfsChaosTest, RacingFirstMountsUnderFaults) {
  // The 16-mount race with failed and dropped RPCs: every retried read or
  // insert still sees the one record whole or not at all, so every mount
  // succeeds.
  static constexpr std::uint64_t kSeeds[] = {3, 11};
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    daos::ClusterConfig cfg = test_config();
    cfg.seed = seed;
    cfg.fault_spec.seed = seed;
    cfg.fault_spec.transient_error_rate = 0.2;
    cfg.fault_spec.rpc_drop_rate = 0.05;
    sim::Scheduler sched;
    daos::Cluster cluster(sched, cfg);
    const MountRace race = race_first_mounts(
        cluster, "chaos-race", std::vector<daos::ObjectClass>(16, daos::ObjectClass::SX));
    for (std::size_t i = 0; i < race.mounts.size(); ++i) {
      EXPECT_TRUE(race.mounts[i].is_ok()) << "mount " << i << ": " << race.mounts[i].to_string();
    }
    EXPECT_GT(race.stats.retries, 0u);
    expect_root_lists(cluster, "chaos-race", racer_files(16));
  }
}

}  // namespace
}  // namespace nws::dfs
