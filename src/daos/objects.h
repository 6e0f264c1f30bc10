// Functional state of DAOS containers and objects.
//
// This is the *semantic* half of the simulator: containers really hold
// objects, Key-Values really map keys to values, Arrays really hold bytes
// (or, in digest mode, their size only, so multi-terabyte benchmark
// workloads do not materialise in host memory).  The timing half lives in
// Client/Cluster.
//
// Epoch/MVCC model (docs/EPOCHS.md): DAOS tags every I/O with an epoch in a
// persistent index and never does read-modify-write (SNIPPETS.md snippet 2).
// We reproduce the observable semantics: each container carries a
// monotonically increasing *committed epoch*; writes land at the pending
// epoch `committed + 1`; `commit()` publishes them.  Objects keep a bounded
// version chain so a reader pinned to a committed epoch E observes exactly
// the epoch-E state while later writes stream in.  The retention policy
// (ModelConfig::epoch_retention_depth) bounds the chain: superseded versions
// older than the retention window — and not pinned by an open snapshot — are
// aggregated away (DAOS "epoch aggregation"), reclaiming their space.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "daos/object_id.h"
#include "sim/sync.h"

namespace nws::daos {

/// Container epoch: a monotonically increasing commit counter.  Epoch 0 is
/// the empty pre-commit state; the first commit publishes epoch 1.
using Epoch = std::uint64_t;

/// Sentinel epoch: "the newest version, committed or not" (unpinned reads).
inline constexpr Epoch kEpochLatest = ~0ull;

/// How array payloads are retained.
enum class PayloadMode {
  full,    // keep every byte (tests, examples)
  digest,  // keep the size only (large benchmarks)
};

/// Epoch/MVCC accounting for one container; Cluster::epoch_stats() folds the
/// per-container totals and snapshot_run_metrics emits them as `epoch.*`.
/// Byte counts are logical (they count payload bytes in digest mode too).
struct EpochStats {
  std::uint64_t commits = 0;
  std::uint64_t snapshots_opened = 0;
  std::uint64_t snapshots_released = 0;
  /// Bytes copied into fresh versions by copy-on-write array updates — the
  /// write-amplification cost of retaining superseded versions.
  Bytes cow_bytes = 0;
  std::uint64_t versions_pruned = 0;
  Bytes bytes_reclaimed = 0;  // logical bytes of aggregated-away versions
};

inline EpochStats& operator+=(EpochStats& a, const EpochStats& b) {
  a.commits += b.commits;
  a.snapshots_opened += b.snapshots_opened;
  a.snapshots_released += b.snapshots_released;
  a.cow_bytes += b.cow_bytes;
  a.versions_pruned += b.versions_pruned;
  a.bytes_reclaimed += b.bytes_reclaimed;
  return a;
}

class KvObject {
 public:
  /// `get_concurrency` bounds simultaneous fetch servicing on the object
  /// (timing model; see ModelConfig::kv_get_concurrency).  `stats`, when
  /// set, receives this object's version-pruning accounting.
  explicit KvObject(sim::Scheduler& sched, std::size_t get_concurrency = 4,
                    EpochStats* stats = nullptr)
      : object_lock_(sched), get_slots_(sched, get_concurrency), stats_(stats) {}

  /// Writes `key` at `epoch`.  Same-epoch updates replace in place (an epoch
  /// is one atomic unit of visibility); an epoch advance appends a version.
  void put(const std::string& key, std::string value, Epoch epoch = 1);

  /// Value of `key` as of `epoch` (newest version at or below it).
  [[nodiscard]] Result<std::string> get(const std::string& key, Epoch epoch = kEpochLatest) const;

  /// Removes a key at `epoch` by writing a tombstone version; returns
  /// not_found if the key is absent at the newest state.
  Status remove(const std::string& key, Epoch epoch = 1);

  [[nodiscard]] bool contains(const std::string& key, Epoch epoch = kEpochLatest) const;
  [[nodiscard]] std::size_t size(Epoch epoch = kEpochLatest) const;

  /// Keys live at `epoch`, in lexicographic order (daos_kv_list equivalent).
  [[nodiscard]] std::vector<std::string> list(Epoch epoch = kEpochLatest) const;

  /// Versions currently retained for `key` (0 if absent) — retention bound.
  [[nodiscard]] std::size_t version_count(const std::string& key) const;

  /// Drops versions superseded at or below `floor` (epoch aggregation): per
  /// key, the newest version at or below the floor is kept as the base.
  void prune(Epoch floor);

  /// Adds retained version count / logical bytes to the live-state gauges.
  void count_live(std::uint64_t& versions, Bytes& bytes) const;

  /// Serialises transactional updates on this object (timing model).
  sim::Mutex& object_lock() { return object_lock_; }

  /// Concurrent-reader instrumentation (timing model: fetch-side contention).
  void reader_enter() { ++active_readers_; }
  void reader_exit() {
    if (active_readers_ == 0) throw std::logic_error("KvObject::reader_exit underflow");
    --active_readers_;
  }
  [[nodiscard]] std::size_t active_readers() const { return active_readers_; }

  /// Concurrent-updater instrumentation (timing model: conditional-update
  /// retry cost scales with concurrent writers).
  void writer_enter() { ++active_writers_; }
  void writer_exit() {
    if (active_writers_ == 0) throw std::logic_error("KvObject::writer_exit underflow");
    --active_writers_;
  }
  [[nodiscard]] std::size_t active_writers() const { return active_writers_; }

  /// Bounded fetch-servicing slots (timing model).
  sim::Semaphore& get_slots() { return get_slots_; }

  /// Hot-entry tracking (timing model): cross-contention applies to fetches
  /// shortly after an update and vice versa.
  void note_update(sim::TimePoint t) { last_update_ = t; }
  void note_read(sim::TimePoint t) { last_read_ = t; }
  [[nodiscard]] sim::TimePoint last_update() const { return last_update_; }
  [[nodiscard]] sim::TimePoint last_read() const { return last_read_; }

 private:
  struct Version {
    Epoch epoch = 1;
    bool tombstone = false;
    std::string value;
  };

  /// Newest version at or below `epoch`, or nullptr (tombstones included —
  /// the caller distinguishes "deleted here" from "never existed").
  [[nodiscard]] const Version* find(const std::string& key, Epoch epoch) const;

  std::map<std::string, std::vector<Version>> entries_;
  std::size_t active_readers_ = 0;
  std::size_t active_writers_ = 0;
  sim::TimePoint last_update_ = -1;
  sim::TimePoint last_read_ = -1;
  sim::Mutex object_lock_;
  sim::Semaphore get_slots_;
  EpochStats* stats_;
};

class ArrayObject {
 public:
  ArrayObject(sim::Scheduler& sched, PayloadMode mode, EpochStats* stats = nullptr)
      : mode_(mode), object_lock_(sched), stats_(stats) {}

  [[nodiscard]] Bytes size(Epoch epoch = kEpochLatest) const;

  /// Whether any version of this object is visible at `epoch` (an array
  /// created after a snapshot is absent from it).
  [[nodiscard]] bool exists_at(Epoch epoch) const;

  /// Logical bytes a write at `epoch` would copy into a fresh version: the
  /// newest version's size when it is older than `epoch` and superseded
  /// versions are retained; 0 when the write lands in place.
  [[nodiscard]] Bytes pending_cow_bytes(Epoch epoch, bool retain_superseded) const;

  /// Stores `len` bytes at `offset` in the `epoch` version.  Writing past a
  /// retained older version copies it first (copy-on-write); with retention
  /// off the newest version is recycled in place.  Returns the bytes
  /// actually copied.  In full mode a write at offset 0 that covers the
  /// whole version replaces its bytes with one copy; a partial write keeps
  /// the rest, and a hole it opens reads as zeros.  In digest mode only the
  /// size is retained and `data` may be null.
  Bytes write(Bytes offset, const std::uint8_t* data, Bytes len, Epoch epoch = 1,
              bool retain_superseded = false);

  /// Reads up to `len` bytes at `offset` of the `epoch` version into `out`
  /// (may be null in digest mode); returns the number of bytes read
  /// (clamped to that version's size).
  [[nodiscard]] Bytes read(Bytes offset, std::uint8_t* out, Bytes len,
                           Epoch epoch = kEpochLatest) const;

  /// Versions currently retained (retention bound; 0 before the first write).
  [[nodiscard]] std::size_t version_count() const { return versions_.size(); }

  /// Drops versions superseded at or below `floor` (epoch aggregation).
  void prune(Epoch floor);

  /// Adds retained version count / logical bytes to the live-state gauges.
  void count_live(std::uint64_t& versions, Bytes& bytes) const;

  sim::Mutex& object_lock() { return object_lock_; }

  /// SCM allocations charged to this array (region index, allocation id),
  /// released when the array is destroyed.
  void note_allocation(std::size_t region, std::uint64_t allocation_id) {
    allocations_.emplace_back(region, allocation_id);
  }
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::uint64_t>>& allocations() const {
    return allocations_;
  }

 private:
  struct Version {
    Epoch epoch = 1;
    Bytes size = 0;
    std::vector<std::uint8_t> bytes;  // full mode only
  };

  /// Newest version at or below `epoch`, or nullptr (object absent there).
  [[nodiscard]] const Version* version_at(Epoch epoch) const;

  /// Makes versions_.back() the `epoch` version that a write modifies: a
  /// first version, the newest one when it is at `epoch` or nothing retains
  /// it, else a copy of it.  Throws at a stale epoch.  Returns the
  /// copy-on-write bytes charged.
  Bytes writable_version(Epoch epoch, bool retain_superseded);

  PayloadMode mode_;
  std::vector<Version> versions_;
  std::vector<std::pair<std::size_t, std::uint64_t>> allocations_;
  sim::Mutex object_lock_;
  EpochStats* stats_;
};

/// A DAOS container: a private object address space inside a pool, carrying
/// its own epoch state (commit counter, open snapshots, retention policy).
class Container {
 public:
  Container(sim::Scheduler& sched, Uuid id, bool is_main, std::size_t kv_get_concurrency = 4,
            std::size_t epoch_retention = 2)
      : sched_(sched), id_(id), is_main_(is_main), kv_get_concurrency_(kv_get_concurrency),
        retention_(epoch_retention) {}

  [[nodiscard]] Uuid id() const { return id_; }
  [[nodiscard]] bool is_main() const { return is_main_; }

  // --- epochs -----------------------------------------------------------------
  /// Highest committed (readable-by-snapshot) epoch; 0 before any commit.
  [[nodiscard]] Epoch committed_epoch() const { return committed_; }
  /// The pending epoch new writes land at.
  [[nodiscard]] Epoch write_epoch() const { return committed_ + 1; }

  /// Publishes the pending epoch and aggregates versions that fell out of
  /// the retention window (and are not pinned).  Returns the new committed
  /// epoch.
  Epoch commit();

  /// Opens a snapshot at `epoch` (kEpochLatest: the newest committed one),
  /// pinning its versions against aggregation until closed.  Fails with
  /// `unsupported` when retention is 0 (nothing is retained to pin),
  /// `invalid` for an uncommitted epoch, `not_found` for one already
  /// aggregated away.
  Result<Epoch> snapshot_open(Epoch epoch);

  /// Releases a snapshot pin; unknown epochs are logic errors.
  void snapshot_close(Epoch epoch);

  /// Whether a write superseding a committed version must preserve it
  /// (retention window or open snapshots) rather than recycle it in place.
  [[nodiscard]] bool retains_superseded() const {
    return retention_ > 0 || !snapshot_refs_.empty();
  }

  [[nodiscard]] std::size_t open_snapshots() const { return snapshot_refs_.size(); }
  [[nodiscard]] const EpochStats& epoch_stats() const { return epoch_stats_; }
  /// Adds retained version count / logical bytes over every object.
  void count_live(std::uint64_t& versions, Bytes& bytes) const;

  // --- objects ----------------------------------------------------------------
  /// Opens (creating on first use, as DAOS objects are materialised on first
  /// write) the KV object with this id.  Type mismatches are logic errors.
  KvObject& kv(const ObjectId& oid);

  /// Creates an array object; fails with already_exists on id reuse.
  Result<ArrayObject*> create_array(const ObjectId& oid, PayloadMode mode);

  /// Opens an existing array object.
  Result<ArrayObject*> open_array(const ObjectId& oid);

  /// Removes an array object, returning its state for final cleanup.
  Result<std::unique_ptr<ArrayObject>> destroy_array(const ObjectId& oid);

  /// Object ids of every array in the container (pool-map rebuild
  /// enumeration after a permanent target loss).
  [[nodiscard]] std::vector<ObjectId> list_arrays() const;

  /// Object ids of every KV object in the container, sorted (pool-map
  /// rebuild enumeration after a permanent target loss).
  [[nodiscard]] std::vector<ObjectId> list_kvs() const;

  /// The KV object with this id, or nullptr if never materialised.
  [[nodiscard]] const KvObject* find_kv(const ObjectId& oid) const {
    const auto it = kvs_.find(oid);
    return it == kvs_.end() ? nullptr : &*it->second;
  }

  [[nodiscard]] bool has_object(const ObjectId& oid) const { return kvs_.count(oid) + arrays_.count(oid) != 0; }
  [[nodiscard]] std::size_t object_count() const { return kvs_.size() + arrays_.size(); }
  [[nodiscard]] std::size_t array_count() const { return arrays_.size(); }

  /// Mixed-load instrumentation (timing model): array data ops in flight
  /// and recency, so interleaved reader/writer activity registers as mixed
  /// even when the ops do not overlap instant-for-instant.
  void array_io_enter(bool is_write) { is_write ? ++active_array_writers_ : ++active_array_readers_; }
  void array_io_exit(bool is_write, sim::TimePoint now) {
    is_write ? --active_array_writers_ : --active_array_readers_;
    (is_write ? last_array_write_ : last_array_read_) = now;
  }
  [[nodiscard]] bool mixed_array_load(sim::TimePoint now, sim::Duration window) const {
    const bool write_active =
        active_array_writers_ > 0 || (last_array_write_ >= 0 && now - last_array_write_ < window);
    const bool read_active =
        active_array_readers_ > 0 || (last_array_read_ >= 0 && now - last_array_read_ < window);
    return write_active && read_active;
  }

 private:
  /// Recomputes the aggregation floor (retention window clamped by the
  /// oldest open snapshot) and prunes every object when it advanced.
  void aggregate();

  sim::Scheduler& sched_;
  Uuid id_;
  bool is_main_;
  std::size_t kv_get_concurrency_;
  std::size_t retention_;  // committed epochs retained behind the head (0: recycle in place)
  Epoch committed_ = 0;
  Epoch prune_floor_ = 0;  // versions superseded at/below this are gone
  std::map<Epoch, std::size_t> snapshot_refs_;  // ordered: begin() is oldest
  EpochStats epoch_stats_;
  std::size_t active_array_readers_ = 0;
  std::size_t active_array_writers_ = 0;
  sim::TimePoint last_array_read_ = -1;
  sim::TimePoint last_array_write_ = -1;
  std::unordered_map<ObjectId, std::unique_ptr<KvObject>, ObjectIdHash> kvs_;
  std::unordered_map<ObjectId, std::unique_ptr<ArrayObject>, ObjectIdHash> arrays_;
};

}  // namespace nws::daos
