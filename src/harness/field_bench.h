// The Field I/O benchmark (paper Sections 5.2-5.3).
//
// Parallel processes each perform a sequence of field I/O operations with
// the FieldIo functions, *without* synchronisation: no barriers, no enforced
// start alignment (a small random start-up skew models launch jitter), and
// no intermediate processing.  Pool/container connections are cached in
// FieldIo.
//
// Contention modes:
//   * low contention (default) — each process writes/reads fields of its
//     own forecast, so it owns its forecast index Key-Value;
//   * high contention (shared_forecast_index) — all processes share a single
//     forecast, hence a single forecast index Key-Value.
//
// Access patterns:
//   * A (unique writes then unique reads): every process writes its own set
//     of new fields; after ALL writers terminate, an equivalent process set
//     reads the corresponding fields back.
//   * B (repeated writes while repeated reads): a setup phase has half the
//     processes write one field each; in the main phase that half re-writes
//     its designated fields repeatedly while the other half simultaneously
//     reads the same designated fields.  This mirrors simultaneous model
//     output and product generation — the write and read bandwidths should
//     be *aggregated* to compare against pattern A.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "daos/cluster.h"
#include "fdb/field_io.h"
#include "obs/io_log.h"

namespace nws::bench {

struct FieldBenchParams {
  fdb::Mode mode = fdb::Mode::full;
  bool shared_forecast_index = false;  // high contention when true
  std::uint32_t ops_per_process = 100;
  Bytes field_size = 1_MiB;
  std::size_t processes_per_node = 24;
  daos::ObjectClass kv_class = daos::ObjectClass::SX;
  daos::ObjectClass array_class = daos::ObjectClass::S1;
  /// Write deterministic per-key payloads (fill_field_payload) and verify
  /// every read byte for byte against them in place (chaos/property
  /// testing).  Requires the cluster to run with PayloadMode::full.
  bool verify_payload = false;
  /// Pattern B only: writers publish every re-write with FieldIo::commit()
  /// (payloads are versioned — fill_versioned_payload) and readers pin the
  /// newest committed epoch, assert snapshot isolation (the pinned read is a
  /// complete version and re-reads under the same pin are byte-identical),
  /// then unpin.  When the cluster's retention policy disables snapshots
  /// (epoch_retention_depth 0) readers fall back to live reads, still
  /// checking version completeness.  Requires PayloadMode::full and
  /// field_size >= 8 (the version header).  See docs/EPOCHS.md.
  bool snapshot_reads = false;
  /// Detail-record capacity of the result logs (0: aggregates only).
  std::size_t log_detail_capacity = 0;
};

struct FieldBenchResult {
  IoLog write_log;
  IoLog read_log;
  /// Layer counters summed over every process of the run.
  fdb::FieldIoStats field_stats;
  daos::ClientStats client_stats;
  /// snapshot_reads accounting: verified pinned reads, pins retried because
  /// retention overtook the pinned epoch mid-read, and live-read fallbacks
  /// (retention 0).
  std::uint64_t snapshot_reads = 0;
  std::uint64_t snapshot_pin_retries = 0;
  std::uint64_t snapshot_fallbacks = 0;
  bool failed = false;
  std::string failure;

  [[nodiscard]] double aggregated_global_bandwidth() const {
    double bw = 0.0;
    if (!write_log.empty()) bw += write_log.global_timing_bandwidth();
    if (!read_log.empty()) bw += read_log.global_timing_bandwidth();
    return bw;
  }
};

/// Spawn/collect decomposition of the pattern runners, for drivers that own
/// the run loop themselves — the partitioned scheduler advances several
/// clusters' schedulers in lock-step windows, so it cannot let each pattern
/// call scheduler().run() internally.  run_field_pattern below remains the
/// single-cluster convenience wrapper (spawn, run, collect).
class FieldPatternRun {
 public:
  /// `pattern` is 'A' or 'B'; params are validated against the cluster.
  FieldPatternRun(daos::Cluster& cluster, const FieldBenchParams& params, char pattern);
  FieldPatternRun(const FieldPatternRun&) = delete;
  FieldPatternRun& operator=(const FieldPatternRun&) = delete;
  ~FieldPatternRun();

  /// Spawns every process coroutine on the cluster's scheduler (same spawn
  /// order as the wrapper, so results are identical).
  void spawn();

  /// Gathers the result; call once after the scheduler ran to completion.
  FieldBenchResult collect();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Access pattern `pattern` ('A' or 'B') on `cluster`, run to completion.
/// Pattern A uses all its client nodes.  Pattern B requires at least 2
/// client processes; the first half of the client nodes write, the second
/// half read (paper: "half of the client processes (and thereby half the
/// client nodes)").
FieldBenchResult run_field_pattern(daos::Cluster& cluster, const FieldBenchParams& params,
                                   char pattern);

/// The field key a given (process, op) uses, exposed for tests: forecast
/// part per process (or shared), field part per (process, op).
fdb::FieldKey bench_field_key(const FieldBenchParams& params, std::uint32_t global_rank,
                              std::uint32_t op, bool designated);

/// Deterministic field payloads for verify_payload runs.  The payload of a
/// key is one endless byte stream; a field of `size` bytes is its first
/// `size` bytes, so any byte range is a slice of the same stream.  Layout:
/// the stream is a sequence of 4 KiB tiles.  With seed = mix64(FNV-1a(key)),
/// the key gets one 4 KiB block of SplitMix64 words seeded with `seed`, and
/// word i of tile t is block[i] ^ mix64(seed ^ (t + 1) * 0x9e3779b97f4a7c15),
/// stored little-endian.  Every tile carries its own mask, so a tile stored
/// at the wrong position, another key's bytes, a shifted patch or a flipped
/// byte all fail verification.
///
/// Writes bytes [offset, offset + n) of `key_canonical`'s payload to `out`.
/// Generates only the block words the range reaches; nothing is zero-filled.
void fill_field_payload(std::uint8_t* out, Bytes offset, Bytes n, std::string_view key_canonical);

/// Whether `got[0, n)` equals bytes [offset, offset + n) of
/// `key_canonical`'s payload.  Compares word by word in place: no expected
/// buffer, no allocation.
[[nodiscard]] bool verify_field_payload(const std::uint8_t* got, Bytes offset, Bytes n,
                                        std::string_view key_canonical);

/// The first `size` bytes of `key_canonical`'s payload in a fresh vector
/// (callers that keep whole payloads; fill_field_payload writes in place).
std::vector<std::uint8_t> make_field_payload(const std::string& key_canonical, Bytes size);

/// Versioned payload for snapshot_reads runs, written to out[0, n): the
/// first 8 bytes hold `version`, the rest are bytes [8, n) of the payload
/// of `key_canonical + "#v" + version` — so torn reads mixing two versions
/// can never pass the completeness check below.
void fill_versioned_payload(std::uint8_t* out, Bytes n, const std::string& key_canonical,
                            std::uint64_t version);

/// Parses the version header of a read-back payload and checks the bytes
/// are exactly that version's, in place.  Returns the version, or -1 if
/// `got` is not a complete version (torn or corrupt).
std::int64_t versioned_payload_version(const std::uint8_t* got, Bytes n,
                                       const std::string& key_canonical);

}  // namespace nws::bench
