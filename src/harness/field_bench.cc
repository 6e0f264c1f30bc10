#include "harness/field_bench.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "common/rng.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace nws::bench {

namespace {

struct Shared {
  Shared(sim::Scheduler& sched, std::size_t writers)
      : writers_done(sched, writers == 0 ? 1 : writers), read_gate(sched) {}
  sim::CountDownLatch writers_done;
  sim::Gate read_gate;
  fdb::FieldIoStats field_stats;    // summed over processes as they finish
  daos::ClientStats client_stats;
  std::uint64_t snapshot_reads = 0;        // verified pinned reads
  std::uint64_t snapshot_pin_retries = 0;  // pins retried (retention overtook)
  std::uint64_t snapshot_fallbacks = 0;    // live-read fallbacks (retention 0)
  bool failed = false;
  std::string failure;

  void fail(const std::string& why) {
    if (!failed) {
      failed = true;
      failure = why;
    }
  }
};

fdb::FieldIoConfig field_io_config(const FieldBenchParams& params) {
  fdb::FieldIoConfig cfg;
  cfg.mode = params.mode;
  cfg.kv_class = params.kv_class;
  cfg.array_class = params.array_class;
  return cfg;
}

/// One benchmark process: its DAOS client on (node, proc), its FieldIo and
/// its trace actor.  Lives in the process's coroutine frame and flushes the
/// process's layer counters into the run totals when that frame winds down
/// — every exit path included (early co_return on a peer's failure, init
/// exceptions after the client exists).
struct Process {
  Process(daos::Cluster& cluster, const FieldBenchParams& params, Shared& totals, std::uint32_t n,
          std::uint32_t p, std::uint32_t actor_rank, std::uint32_t client_salt,
          std::uint32_t io_rank)
      : shared(totals),
        node(n),
        proc(p),
        client(cluster, cluster.client_endpoint(n, p), client_salt),
        io(client, field_io_config(params), io_rank),
        actor{n, actor_rank} {
    client.set_trace_actor(actor);
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() {
    shared.field_stats += io.stats();
    shared.client_stats += client.stats();
  }

  Shared& shared;
  std::uint32_t node;
  std::uint32_t proc;
  daos::Client client;
  fdb::FieldIo io;
  obs::Actor actor;
};

sim::Duration startup_skew(daos::Cluster& cluster, std::uint64_t salt) {
  Rng rng = cluster.fork_rng(0xbadc0ffeull ^ salt);
  return sim::seconds(rng.uniform(0.0, cluster.model().startup_skew_max_seconds));
}

}  // namespace

fdb::FieldKey bench_field_key(const FieldBenchParams& params, std::uint32_t global_rank,
                              std::uint32_t op, bool designated) {
  fdb::FieldKey key;
  // Forecast (most-significant) part: one shared forecast under high
  // contention, one forecast per process otherwise.
  key.set("class", "od").set("stream", "oper").set("expver", "0001").set("date", "20201224");
  key.set("time", params.shared_forecast_index ? "0000" : std::to_string(global_rank));
  // Field (least-significant) part: distinct per (process, op); pattern B's
  // designated fields fix the op component.
  key.set("param", "t");
  key.set("level", std::to_string(global_rank));
  key.set("step", designated ? "0" : std::to_string(op));
  return key;
}

namespace {

constexpr std::size_t kTileBytes = 4096;
constexpr std::size_t kTileWords = kTileBytes / 8;

/// Payload words are stored little-endian: a byte swap on big-endian hosts,
/// nothing on little-endian ones.  The swap is its own inverse, so loads
/// use it too.
std::uint64_t little_endian(std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) return __builtin_bswap64(word);
  return word;
}

/// One key's tiled payload stream, able to produce any byte range: the
/// key's block of SplitMix64 words (only as many as the range reaches) and
/// the per-tile masks.
class PayloadTiles {
 public:
  /// Generates the block words that bytes [0, end) reach.
  PayloadTiles(std::string_view key_canonical, Bytes end) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the canonical key
    for (const char c : key_canonical) h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
    seed_ = mix64(h);
    words_ = end >= kTileBytes ? kTileWords : static_cast<std::size_t>((end + 7) / 8);
    Rng rng(seed_);
    for (std::size_t i = 0; i < words_; ++i) block_[i] = rng.next_u64();
  }

  /// Walks payload bytes [offset, offset + n) in order, calling
  /// part(word, skip, len) for a partial word at either end (bytes
  /// [skip, skip + len) of the little-endian `word`) and
  /// run(block, count, mask) for each stretch of whole words inside one
  /// tile (payload word k of the stretch is block[k] ^ mask).  Stops and
  /// returns false as soon as a callback returns false.
  template <typename Part, typename Run>
  bool walk(Bytes offset, Bytes n, const Part& part, const Run& run) const {
    const Bytes end = offset + n;
    if (offset % 8 != 0) {
      const std::size_t skip = static_cast<std::size_t>(offset % 8);
      const std::size_t len = static_cast<std::size_t>(std::min<Bytes>(8 - skip, n));
      if (!part(word(offset / 8), skip, len)) return false;
      offset += len;
    }
    for (Bytes first = offset / 8; first < end / 8;) {
      const std::size_t i = static_cast<std::size_t>(first % kTileWords);
      const std::size_t count =
          static_cast<std::size_t>(std::min<Bytes>(end / 8 - first, kTileWords - i));
      require_generated(i + count);
      if (!run(block_.data() + i, count, mask(first / kTileWords))) return false;
      first += count;
    }
    if (end % 8 == 0 || offset == end) return true;
    return part(word(end / 8), 0, static_cast<std::size_t>(end % 8));
  }

 private:
  void require_generated(std::size_t words) const {
    if (words > words_) throw std::logic_error("PayloadTiles: read past the generated block words");
  }

  /// Little-endian payload word `j`, i.e. payload bytes [8j, 8j + 8).
  [[nodiscard]] std::uint64_t word(Bytes j) const {
    const std::size_t i = static_cast<std::size_t>(j % kTileWords);
    require_generated(i + 1);
    return little_endian(block_[i] ^ mask(j / kTileWords));
  }

  [[nodiscard]] std::uint64_t mask(Bytes tile) const {
    return mix64(seed_ ^ ((tile + 1) * 0x9e3779b97f4a7c15ull));
  }

  std::uint64_t seed_ = 0;
  std::size_t words_ = 0;
  std::array<std::uint64_t, kTileWords> block_;  // [0, words_) generated
};

/// The payload key of one version of a versioned field.
std::string version_key(const std::string& key_canonical, std::uint64_t version) {
  return key_canonical + "#v" + std::to_string(version);
}

}  // namespace

void fill_field_payload(std::uint8_t* out, Bytes offset, Bytes n, std::string_view key_canonical) {
  if (n == 0) return;
  const auto part = [&out](std::uint64_t word, std::size_t skip, std::size_t len) {
    std::memcpy(out, reinterpret_cast<const std::uint8_t*>(&word) + skip, len);
    out += len;
    return true;
  };
  const auto run = [&out](const std::uint64_t* block, std::size_t count, std::uint64_t mask) {
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t word = little_endian(block[k] ^ mask);
      std::memcpy(out + 8 * k, &word, 8);
    }
    out += 8 * count;
    return true;
  };
  PayloadTiles(key_canonical, offset + n).walk(offset, n, part, run);
}

bool verify_field_payload(const std::uint8_t* got, Bytes offset, Bytes n,
                          std::string_view key_canonical) {
  if (n == 0) return true;
  const auto part = [&got](std::uint64_t word, std::size_t skip, std::size_t len) {
    const auto* expected = reinterpret_cast<const std::uint8_t*>(&word) + skip;
    for (std::size_t k = 0; k < len; ++k) {
      if (got[k] != expected[k]) return false;
    }
    got += len;
    return true;
  };
  // One branch per tile: the difference is accumulated over the stretch.
  const auto run = [&got](const std::uint64_t* block, std::size_t count, std::uint64_t mask) {
    std::uint64_t diff = 0;
    for (std::size_t k = 0; k < count; ++k) {
      std::uint64_t word = 0;
      std::memcpy(&word, got + 8 * k, 8);
      diff |= little_endian(word) ^ block[k] ^ mask;
    }
    got += 8 * count;
    return diff == 0;
  };
  return PayloadTiles(key_canonical, offset + n).walk(offset, n, part, run);
}

std::vector<std::uint8_t> make_field_payload(const std::string& key_canonical, Bytes size) {
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(size));
  fill_field_payload(payload.data(), 0, size, key_canonical);
  return payload;
}

void fill_versioned_payload(std::uint8_t* out, Bytes n, const std::string& key_canonical,
                            std::uint64_t version) {
  if (n < 8) {
    fill_field_payload(out, 0, n, version_key(key_canonical, version));
    return;
  }
  std::memcpy(out, &version, 8);
  fill_field_payload(out + 8, 8, n - 8, version_key(key_canonical, version));
}

std::int64_t versioned_payload_version(const std::uint8_t* got, Bytes n,
                                       const std::string& key_canonical) {
  if (n < 8) return -1;
  std::uint64_t version = 0;
  std::memcpy(&version, got, 8);
  if (version > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) return -1;
  if (!verify_field_payload(got + 8, 8, n - 8, version_key(key_canonical, version))) return -1;
  return static_cast<std::int64_t>(version);
}

namespace {

/// One process's payload buffer of field_size bytes, left uninitialised
/// (every op fills or reads it whole); null when the run moves no bytes.
std::unique_ptr<std::uint8_t[]> payload_buffer(const FieldBenchParams& params, bool needed) {
  if (!needed) return nullptr;
  return std::make_unique_for_overwrite<std::uint8_t[]>(static_cast<std::size_t>(params.field_size));
}

void require_verifiable(const daos::Cluster& cluster, const FieldBenchParams& params) {
  if (params.verify_payload && cluster.config().payload_mode != daos::PayloadMode::full) {
    throw std::logic_error("FieldBenchParams::verify_payload requires PayloadMode::full");
  }
  if (params.snapshot_reads) {
    if (cluster.config().payload_mode != daos::PayloadMode::full) {
      throw std::logic_error("FieldBenchParams::snapshot_reads requires PayloadMode::full");
    }
    if (params.field_size < 8) {
      throw std::logic_error("FieldBenchParams::snapshot_reads requires field_size >= 8");
    }
  }
}

sim::Task<void> pattern_a_writer(daos::Cluster& cluster, const FieldBenchParams params, Shared& shared,
                                 IoLog& log, std::uint32_t node, std::uint32_t proc,
                                 std::uint32_t global_rank) {
  Process self(cluster, params, shared, node, proc, global_rank, 0x10000u + global_rank,
               global_rank);
  co_await cluster.scheduler().delay(startup_skew(cluster, global_rank));
  (co_await self.io.init()).expect_ok("FieldIo::init");

  const auto payload = payload_buffer(params, params.verify_payload);
  for (std::uint32_t op = 0; op < params.ops_per_process && !shared.failed; ++op) {
    const fdb::FieldKey key = bench_field_key(params, global_rank, op, /*designated=*/false);
    if (payload) fill_field_payload(payload.get(), 0, params.field_size, key.canonical());
    self.client.set_trace_iteration(op);
    obs::Span io_span("io", "io", self.actor, op, static_cast<double>(params.field_size));
    const std::uint64_t retries_before = self.io.stats().retries;
    const sim::TimePoint start = cluster.scheduler().now();
    const Status st = co_await self.io.write(key, payload.get(), params.field_size);
    if (!st.is_ok()) {
      shared.fail("write failed: " + st.to_string());
      break;
    }
    log.record(node, proc, op, start, cluster.scheduler().now(), params.field_size,
               static_cast<std::uint32_t>(self.io.stats().retries - retries_before));
  }
  shared.writers_done.count_down();
}

/// The read-and-verify loop of pattern A's readers and pattern B's live
/// readers: reads bench_field_key(params, key_rank, op, designated) once per
/// op, verifying it in place against the key's payload under verify_payload.
sim::Task<void> read_fields(daos::Cluster& cluster, const FieldBenchParams& params, Process& self,
                            IoLog& log, std::uint32_t key_rank, bool designated) {
  Shared& shared = self.shared;
  const auto buf = payload_buffer(params, params.verify_payload);
  for (std::uint32_t op = 0; op < params.ops_per_process && !shared.failed; ++op) {
    const fdb::FieldKey key = bench_field_key(params, key_rank, op, designated);
    self.client.set_trace_iteration(op);
    obs::Span io_span("io", "io", self.actor, op, static_cast<double>(params.field_size));
    const std::uint64_t retries_before = self.io.stats().retries;
    const sim::TimePoint start = cluster.scheduler().now();
    auto n = co_await self.io.read(key, buf.get(), params.field_size);
    if (!n.is_ok() || n.value() != params.field_size) {
      shared.fail("read failed: " + (n.is_ok() ? std::string("short read") : n.status().to_string()));
      break;
    }
    if (buf && !verify_field_payload(buf.get(), 0, n.value(), key.canonical())) {
      shared.fail("payload mismatch: " + key.canonical());
      break;
    }
    log.record(self.node, self.proc, op, start, cluster.scheduler().now(), params.field_size,
               static_cast<std::uint32_t>(self.io.stats().retries - retries_before));
  }
}

sim::Task<void> pattern_a_reader(daos::Cluster& cluster, const FieldBenchParams params, Shared& shared,
                                 IoLog& log, std::uint32_t node, std::uint32_t proc,
                                 std::uint32_t global_rank) {
  Process self(cluster, params, shared, node, proc, global_rank, 0x20000u + global_rank,
               0x8000u + global_rank);
  // Second phase begins only "once all writer processes on all nodes have
  // terminated".
  co_await shared.read_gate.wait();
  co_await cluster.scheduler().delay(startup_skew(cluster, 0x9000u + global_rank));
  (co_await self.io.init()).expect_ok("FieldIo::init");
  co_await read_fields(cluster, params, self, log, global_rank, /*designated=*/false);
}

/// Opens the read gate once every writer finished (pattern A) or finished
/// its setup write (pattern B).
sim::Task<void> conductor(Shared& shared) {
  co_await shared.writers_done.wait();
  shared.read_gate.open();
}

sim::Task<void> pattern_b_writer(daos::Cluster& cluster, const FieldBenchParams params, Shared& shared,
                                 IoLog& log, std::uint32_t node, std::uint32_t proc,
                                 std::uint32_t global_rank) {
  Process self(cluster, params, shared, node, proc, global_rank, 0x30000u + global_rank,
               global_rank);
  co_await cluster.scheduler().delay(startup_skew(cluster, 0xa000u + global_rank));
  (co_await self.io.init()).expect_ok("FieldIo::init");

  const fdb::FieldKey key = bench_field_key(params, global_rank, 0, /*designated=*/true);
  const auto payload = payload_buffer(params, params.snapshot_reads || params.verify_payload);
  if (params.snapshot_reads) {
    // Every (re-)write stores a distinct complete version; readers assert
    // they only ever observe whole versions (snapshot isolation).
    fill_versioned_payload(payload.get(), params.field_size, key.canonical(), 0);
  } else if (params.verify_payload) {
    // Re-writes store the same deterministic content, so readers racing a
    // re-write always see a consistent payload for the designated key.
    fill_field_payload(payload.get(), 0, params.field_size, key.canonical());
  }

  // Setup phase: populate the designated field once (and, in snapshot-read
  // runs, publish it — readers then always find a committed epoch to pin).
  {
    const Status st = co_await self.io.write(key, payload.get(), params.field_size);
    if (!st.is_ok()) {
      shared.fail("setup write failed: " + st.to_string());
    } else if (params.snapshot_reads) {
      auto committed = co_await self.io.commit(key);
      if (!committed.is_ok()) shared.fail("setup commit failed: " + committed.status().to_string());
    }
    shared.writers_done.count_down();
  }
  // Main phase starts once ALL setup writes have completed.
  co_await shared.read_gate.wait();
  if (shared.failed) co_return;

  for (std::uint32_t op = 0; op < params.ops_per_process && !shared.failed; ++op) {
    self.client.set_trace_iteration(op);
    obs::Span io_span("io", "io", self.actor, op, static_cast<double>(params.field_size));
    const std::uint64_t retries_before = self.io.stats().retries;
    const sim::TimePoint start = cluster.scheduler().now();
    if (params.snapshot_reads) {
      fill_versioned_payload(payload.get(), params.field_size, key.canonical(), op + 1);
    }
    const Status st = co_await self.io.write(key, payload.get(), params.field_size);
    if (!st.is_ok()) {
      shared.fail("re-write failed: " + st.to_string());
      break;
    }
    if (params.snapshot_reads) {
      // Publish the new version; the op's latency includes the commit — the
      // write-amplification/latency trade fig_snapshot_rw measures.
      auto committed = co_await self.io.commit(key);
      if (!committed.is_ok()) {
        shared.fail("commit failed: " + committed.status().to_string());
        break;
      }
    }
    log.record(node, proc, op, start, cluster.scheduler().now(), params.field_size,
               static_cast<std::uint32_t>(self.io.stats().retries - retries_before));
  }
}

sim::Task<void> pattern_b_reader(daos::Cluster& cluster, const FieldBenchParams params, Shared& shared,
                                 IoLog& log, std::uint32_t node, std::uint32_t proc,
                                 std::uint32_t writer_rank, std::uint32_t reader_index) {
  Process self(cluster, params, shared, node, proc, reader_index, 0x40000u + reader_index,
               0xC000u + reader_index);
  co_await shared.read_gate.wait();
  if (shared.failed) co_return;
  co_await cluster.scheduler().delay(startup_skew(cluster, 0xb000u + reader_index));
  (co_await self.io.init()).expect_ok("FieldIo::init");

  // Reads the field designated to the paired writer.
  if (!params.snapshot_reads) {
    co_await read_fields(cluster, params, self, log, writer_rank, /*designated=*/true);
    co_return;
  }

  // Snapshot-isolation read path: pin the newest committed epoch, assert
  // the pinned read is one complete version AND byte-stable across a
  // re-read under the same pin (while the writer streams the next version
  // in), then release.  A not_found under the pin means retention (or
  // cross-container skew under faults) overtook the pinned epoch — re-pin
  // at the newest committed epoch and retry; the writer's finite schedule
  // bounds the retries.
  const fdb::FieldKey key = bench_field_key(params, writer_rank, 0, /*designated=*/true);
  const auto first = payload_buffer(params, true);
  const auto second = payload_buffer(params, true);
  bool fallback_mode = false;
  for (std::uint32_t op = 0; op < params.ops_per_process && !shared.failed; ++op) {
    self.client.set_trace_iteration(op);
    obs::Span io_span("io", "io", self.actor, op, static_cast<double>(params.field_size));
    const std::uint64_t retries_before = self.io.stats().retries;
    const sim::TimePoint start = cluster.scheduler().now();
    bool done = false;
    while (!done && !shared.failed) {
      if (fallback_mode) {
        // Retention 0 disables snapshots: live read, still asserting the
        // payload is one complete version (writes are never torn).
        auto n = co_await self.io.read(key, first.get(), params.field_size);
        if (!n.is_ok() || n.value() != params.field_size) {
          shared.fail("read failed: " +
                      (n.is_ok() ? std::string("short read") : n.status().to_string()));
          break;
        }
        if (versioned_payload_version(first.get(), params.field_size, key.canonical()) < 0) {
          shared.fail("torn read: live read is not a complete version: " + key.canonical());
          break;
        }
        ++shared.snapshot_fallbacks;
        done = true;
        continue;
      }
      auto pinned = co_await self.io.pin_snapshot(key);
      if (!pinned.is_ok()) {
        if (pinned.status().code() == Errc::unsupported) {
          fallback_mode = true;
          continue;
        }
        shared.fail("pin_snapshot failed: " + pinned.status().to_string());
        break;
      }
      auto n = co_await self.io.read(key, first.get(), params.field_size);
      if (!n.is_ok() || n.value() != params.field_size) {
        (co_await self.io.unpin_snapshot(key)).expect_ok("unpin_snapshot");
        if (!n.is_ok() && n.status().code() == Errc::not_found) {
          ++shared.snapshot_pin_retries;
          continue;
        }
        shared.fail("pinned read failed: " +
                    (n.is_ok() ? std::string("short read") : n.status().to_string()));
        break;
      }
      auto n2 = co_await self.io.read(key, second.get(), params.field_size);
      (co_await self.io.unpin_snapshot(key)).expect_ok("unpin_snapshot");
      if (!n2.is_ok() || n2.value() != params.field_size ||
          std::memcmp(first.get(), second.get(), static_cast<std::size_t>(params.field_size)) != 0) {
        shared.fail("snapshot instability: re-read under the pinned epoch differed: " +
                    key.canonical());
        break;
      }
      if (versioned_payload_version(first.get(), params.field_size, key.canonical()) < 0) {
        shared.fail("torn read: pinned read is not a complete version: " + key.canonical());
        break;
      }
      ++shared.snapshot_reads;
      done = true;
    }
    if (!done) break;
    log.record(node, proc, op, start, cluster.scheduler().now(), params.field_size,
               static_cast<std::uint32_t>(self.io.stats().retries - retries_before));
  }
}

}  // namespace

struct FieldPatternRun::Impl {
  daos::Cluster& cluster;
  FieldBenchParams params;
  char pattern;
  FieldBenchResult result;
  Shared shared;

  static std::size_t writer_count(const daos::Cluster& cluster, const FieldBenchParams& params,
                                  char pattern) {
    const std::size_t nodes = cluster.config().client_nodes;
    const std::size_t ppn = params.processes_per_node;
    if (pattern == 'A') return nodes * ppn;
    // Pattern B: first half of the client nodes write, second half read.
    // With a single client node, the node's processes are split instead.
    const std::size_t writer_nodes = nodes >= 2 ? nodes / 2 : 1;
    return nodes >= 2 ? writer_nodes * ppn : std::max<std::size_t>(ppn / 2, 1);
  }

  Impl(daos::Cluster& c, const FieldBenchParams& p, char pat)
      : cluster(c),
        params(p),
        pattern(pat),
        shared(c.scheduler(), writer_count(c, p, pat)) {
    result.write_log = IoLog(params.log_detail_capacity);
    result.read_log = IoLog(params.log_detail_capacity);
  }

  void spawn_a() {
    const std::size_t nodes = cluster.config().client_nodes;
    const std::size_t ppn = params.processes_per_node;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (std::uint32_t p = 0; p < ppn; ++p) {
        const auto rank = static_cast<std::uint32_t>(n * ppn + p);
        cluster.scheduler().spawn(
            pattern_a_writer(cluster, params, shared, result.write_log, n, p, rank));
        cluster.scheduler().spawn(
            pattern_a_reader(cluster, params, shared, result.read_log, n, p, rank));
      }
    }
    cluster.scheduler().spawn(conductor(shared));
  }

  void spawn_b() {
    const std::size_t nodes = cluster.config().client_nodes;
    const std::size_t ppn = params.processes_per_node;
    const std::size_t writer_nodes = nodes >= 2 ? nodes / 2 : 1;
    const std::size_t writer_procs = writer_count(cluster, params, 'B');
    std::uint32_t writer_rank = 0;
    std::uint32_t reader_index = 0;
    std::vector<std::uint32_t> writer_ranks;
    // Writers.
    for (std::uint32_t n = 0; n < writer_nodes; ++n) {
      const std::size_t count = nodes >= 2 ? ppn : writer_procs;
      for (std::uint32_t p = 0; p < count; ++p) {
        cluster.scheduler().spawn(
            pattern_b_writer(cluster, params, shared, result.write_log, n, p, writer_rank));
        writer_ranks.push_back(writer_rank);
        ++writer_rank;
      }
    }
    // Readers: same population, on the remaining nodes (or remaining procs of
    // the single node), each paired with a writer's designated field.
    const std::uint32_t first_reader_node = nodes >= 2 ? static_cast<std::uint32_t>(writer_nodes) : 0;
    for (std::uint32_t n = first_reader_node; n < nodes; ++n) {
      const std::size_t base = nodes >= 2 ? 0 : writer_procs;
      const std::size_t count = nodes >= 2 ? ppn : writer_procs;
      for (std::uint32_t p = 0; p < count && reader_index < writer_ranks.size(); ++p) {
        cluster.scheduler().spawn(pattern_b_reader(cluster, params, shared, result.read_log, n,
                                                   static_cast<std::uint32_t>(base + p),
                                                   writer_ranks[reader_index], reader_index));
        ++reader_index;
      }
    }
    cluster.scheduler().spawn(conductor(shared));
  }
};

FieldPatternRun::FieldPatternRun(daos::Cluster& cluster, const FieldBenchParams& params,
                                 char pattern) {
  if (pattern != 'A' && pattern != 'B') throw std::invalid_argument("pattern must be 'A' or 'B'");
  require_verifiable(cluster, params);
  impl_ = std::make_unique<Impl>(cluster, params, pattern);
}

FieldPatternRun::~FieldPatternRun() = default;

void FieldPatternRun::spawn() {
  if (impl_->pattern == 'A') {
    impl_->spawn_a();
  } else {
    impl_->spawn_b();
  }
}

FieldBenchResult FieldPatternRun::collect() {
  FieldBenchResult result = std::move(impl_->result);
  result.field_stats = impl_->shared.field_stats;
  result.client_stats = impl_->shared.client_stats;
  result.snapshot_reads = impl_->shared.snapshot_reads;
  result.snapshot_pin_retries = impl_->shared.snapshot_pin_retries;
  result.snapshot_fallbacks = impl_->shared.snapshot_fallbacks;
  result.failed = impl_->shared.failed;
  result.failure = impl_->shared.failure;
  return result;
}

FieldBenchResult run_field_pattern(daos::Cluster& cluster, const FieldBenchParams& params,
                                   char pattern) {
  FieldPatternRun run(cluster, params, pattern);
  run.spawn();
  cluster.scheduler().run();
  return run.collect();
}

}  // namespace nws::bench
