// Weather-field I/O over DAOS — the paper's Algorithms 1 and 2.
//
// The layout mirrors ECMWF's FDB5 design (paper Section 4, Fig. 2):
//
//   main container ── main Key-Value:   most-significant key part
//                                        -> forecast index container uuid
//   forecast index container ── forecast Key-Value:
//                                        least-significant key part
//                                        -> array object id
//                                        (+ "__store_container" special entry
//                                           -> forecast store container uuid)
//   forecast store container ── one DAOS Array per stored field.
//
// Container uuids are md5 sums of the most-significant key part, so
// concurrent creators of the same forecast collide on the same ids instead
// of producing inaccessible containers.  A re-written field gets a *new*
// Array; the old one is de-referenced but never deleted (Section 4).
//
// Three modes (paper Section 5.2):
//   full          — the full algorithm above.
//   no_containers — same Key-Values and Arrays, all in the main container.
//   no_index      — no Key-Values at all: the field key's md5 maps directly
//                   to the Array object id (re-writes therefore overwrite
//                   the same Array, moving the contention to the Array).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/md5.h"
#include "common/status.h"
#include "daos/client.h"
#include "daos/retry.h"
#include "fdb/field_key.h"
#include "sim/task.h"
#include "sim/time.h"

namespace nws::fdb {

enum class Mode {
  full,
  no_containers,
  no_index,
};

const char* mode_name(Mode mode);
Mode mode_by_name(const std::string& name);

struct FieldIoConfig {
  Mode mode = Mode::full;
  /// Paper 6.3.1: Key-Values striped across all targets...
  daos::ObjectClass kv_class = daos::ObjectClass::SX;
  /// ...and Arrays unstriped (Fig. 6 explores alternatives).
  daos::ObjectClass array_class = daos::ObjectClass::S1;
};

struct FieldIoStats {
  std::uint64_t fields_written = 0;
  std::uint64_t fields_read = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  /// Cumulative retry attempts across all operations (fault injection).
  std::uint64_t retries = 0;
  /// Epoch operations: forecast commits published and snapshots pinned.
  std::uint64_t commits = 0;
  std::uint64_t snapshot_pins = 0;
};

/// Accumulates one process's counters into a run-wide total (harness
/// aggregation; feeds the run's metrics snapshot).
inline FieldIoStats& operator+=(FieldIoStats& a, const FieldIoStats& b) {
  a.fields_written += b.fields_written;
  a.fields_read += b.fields_read;
  a.bytes_written += b.bytes_written;
  a.bytes_read += b.bytes_read;
  a.retries += b.retries;
  a.commits += b.commits;
  a.snapshot_pins += b.snapshot_pins;
  return a;
}

// --- the naming scheme (Section 4), shared by FieldIo and Catalogue ---------

/// The main index: one well-known KV in the main container.
inline daos::ObjectId main_index_oid(daos::ObjectClass kv_class) {
  return daos::ObjectId::from_digest(md5("nws:main-index"), daos::ObjectType::key_value, kv_class);
}
/// A forecast's index KV, named by its most-significant key part.
inline daos::ObjectId forecast_index_oid(const std::string& msk, daos::ObjectClass kv_class) {
  return daos::ObjectId::from_digest(md5(msk + ":index-kv"), daos::ObjectType::key_value, kv_class);
}
/// Container names, recorded as index values (the main index maps a forecast
/// to its index container, the forecast index KV's kStoreContainerEntry to
/// its store container); a container's uuid is the md5 of its name.
inline std::string index_container_name(const std::string& msk) { return msk + ":index"; }
inline std::string store_container_name(const std::string& msk) { return msk + ":store"; }
inline daos::Uuid index_container_uuid(const std::string& msk) {
  return daos::Uuid::from_string_md5(index_container_name(msk));
}
inline daos::Uuid store_container_uuid(const std::string& msk) {
  return daos::Uuid::from_string_md5(store_container_name(msk));
}
/// The forecast index KV's special entry naming the store container.  A
/// std::string (not const char*) so retry lambdas can pass it to const
/// std::string& coroutine parameters without materialising a temporary that
/// would die before the lazy task runs.
inline const std::string kStoreContainerEntry = "__store_container";

/// Per-process field reader/writer.  Pool and container connections are
/// cached, as in the paper's benchmark ("Pool and container connections in a
/// process are cached", Section 5.2).
class FieldIo {
 public:
  /// `rank` must be unique across all processes of a workload: it namespaces
  /// the Array object ids this writer allocates.
  FieldIo(daos::Client& client, FieldIoConfig config, std::uint32_t rank);

  /// Connects to the pool and opens the main container and main index.
  sim::Task<Status> init();

  /// Algorithm 1: stores `len` bytes under `key`.  In digest payload mode
  /// `data` may be null.
  sim::Task<Status> write(const FieldKey& key, const std::uint8_t* data, Bytes len);

  /// Algorithm 2: retrieves the field stored under `key` into `out`
  /// (capacity `out_len`; null allowed in digest mode).  Returns the field
  /// size, or not_found.  While the forecast is pinned (pin_snapshot), the
  /// read observes exactly the pinned epoch's state.
  sim::Task<Result<Bytes>> read(const FieldKey& key, std::uint8_t* out, Bytes out_len);

  // --- epochs (docs/EPOCHS.md) ----------------------------------------------
  // The forecast-level face of the DAOS epoch model: a writer publishes a
  // consistent forecast state with commit(); a reader pins that state and
  // reads it torn-free while the next state streams in.

  /// Publishes `key`'s forecast: commits the store container, then the index
  /// container (so a committed index entry never leads ahead of committed
  /// array data); the collapsed modes commit the main container.  Returns
  /// the forecast's new committed (publication) epoch.
  sim::Task<Result<daos::Epoch>> commit(const FieldKey& key);

  /// Pins `key`'s forecast at `epoch` (kEpochLatest: newest committed) for
  /// subsequent read()s.  In full mode the index is pinned first, then the
  /// store, so a pinned index entry's array is committed at or before the
  /// pinned store epoch whenever the writer committed through commit();
  /// cross-container skew under faults surfaces as a clean not_found read
  /// (retryable by re-pinning), never as torn bytes.  Returns the pinned
  /// publication epoch.
  sim::Task<Result<daos::Epoch>> pin_snapshot(const FieldKey& key,
                                              daos::Epoch epoch = daos::kEpochLatest);

  /// Releases `key`'s forecast pin (no-op status if not pinned).
  sim::Task<Status> unpin_snapshot(const FieldKey& key);

  /// Whether read()s of `key`'s forecast currently observe a pinned epoch.
  [[nodiscard]] bool pinned(const FieldKey& key) const {
    return pinned_.count(key.most_significant()) != 0;
  }

  [[nodiscard]] const FieldIoStats& stats() const { return stats_; }
  [[nodiscard]] const FieldIoConfig& config() const { return config_; }

 private:
  struct ForecastHandles {
    daos::ContHandle index_cont;
    daos::ContHandle store_cont;
    daos::KvHandle index_kv;
  };

  /// Snapshot-pinned handles of one forecast (pin_snapshot): reads through
  /// them observe exactly the pinned epochs.  index_cont and index_kv are
  /// invalid in no_index mode.
  struct PinnedForecast : ForecastHandles {
    bool shared_cont = false;  // index_cont IS store_cont (one pin to release)
  };

  /// Write path of Algorithm 1 before the array store: resolves (creating if
  /// needed) the forecast's containers and index KV.
  sim::Task<Result<ForecastHandles*>> resolve_forecast_for_write(const std::string& msk);
  /// Read path of Algorithm 2: resolves via the main index only; fails with
  /// not_found for unknown forecasts.
  sim::Task<Result<ForecastHandles*>> resolve_forecast_for_read(const std::string& msk);
  /// Full mode, forecast found in the main index: opens its index container,
  /// index KV and (via the KV's store entry) store container, and caches them.
  sim::Task<Result<ForecastHandles*>> open_indexed_forecast(const std::string& msk);

  [[nodiscard]] daos::ObjectId forecast_kv_oid(const std::string& msk) const {
    return forecast_index_oid(msk, config_.kv_class);
  }
  /// no_index mode: the field key's md5 names its Array directly.
  [[nodiscard]] daos::ObjectId no_index_oid(const FieldKey& key) const {
    return daos::ObjectId::from_digest(md5(key.canonical()), daos::ObjectType::array,
                                       config_.array_class);
  }
  [[nodiscard]] daos::ObjectId next_array_oid();

  daos::Client& client_;
  FieldIoConfig config_;
  std::uint32_t rank_;
  /// Drives the daos retry policy over client_ (see daos/retry.h for the
  /// LIFETIME rule its lambda factories must respect); counts into
  /// stats_.retries.
  daos::Retrier retrier_;
  std::uint64_t array_counter_ = 0;

  bool initialised_ = false;
  daos::ContHandle main_cont_;
  daos::KvHandle main_kv_;
  std::unordered_map<std::string, ForecastHandles> forecasts_;  // connection cache
  /// Open Array handles, cached across operations like the container and KV
  /// connections above (the paper's Section 5.2 connection caching, one
  /// level down): repeated reads of a field — and no-index re-writes, which
  /// hit one well-known Array per key — skip the open/close round-trips.
  /// Handles are plain values; a process simply keeps them open.
  std::unordered_map<daos::ObjectId, daos::ArrayHandle, daos::ObjectIdHash> arrays_;
  /// Forecasts currently pinned at a snapshot epoch, by most-significant key.
  std::unordered_map<std::string, PinnedForecast> pinned_;

  FieldIoStats stats_;
};

/// Serialisation helpers for object ids stored as KV values.
std::string oid_to_string(const daos::ObjectId& oid);
Result<daos::ObjectId> oid_from_string(const std::string& s);

}  // namespace nws::fdb
