// A directory/file namespace over DAOS KV + Array objects, modelled on the
// real libdfs layout (docs/DFS.md; "Exploring DAOS Interfaces", arXiv
// 2311.18714):
//
//   container  ── superblock Key-Value (well-known oid): one record,
//                 "nws-dfs-v1|<directory object class>"
//              ── one Key-Value per directory: entry name -> serialized
//                 record {type, object id}
//              ── one Array per regular file holding the file's bytes.
//
// The root directory's oid is derived, like the superblock's, so nothing
// stores it.
//
// A path walk resolves one directory KV per component; mkdir/create reserve
// their entry with a conditional insert (Client::kv_put_if_absent), so
// concurrent creators of the same name see exactly one winner.  An injected
// fault fails the insert before it applies, so a retried insert never meets
// its own earlier attempt: already_exists always names another creator's
// entry.  readdir is KV enumeration, ordered by the kv_list lexicographic
// contract; rename moves the entry record between directory KVs (the file's
// Array is untouched — dfs rename is a metadata operation, unlike object
// stores).
//
// The namespace composes with the rest of the daos model: every operation
// retries transient faults under the daos retry policy, file data placed
// with an RP/EC object class survives permanent target loss, and commit()
// publishes the container's pending epoch (docs/EPOCHS.md).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/retry.h"
#include "obs/metrics.h"

namespace nws::dfs {

enum class EntryType : std::uint8_t { file, directory };

struct DfsConfig {
  /// Object class of file-data Arrays (RP/EC classes make file contents
  /// survive permanent target loss).
  daos::ObjectClass file_class = daos::ObjectClass::S1;
  /// Object class of the superblock and every directory Key-Value.  Must
  /// match the formatting mount on remount (it is encoded in the well-known
  /// object ids).
  daos::ObjectClass dir_class = daos::ObjectClass::SX;
};

/// Per-mount operation counters; fold_into emits them as `dfs.*` metrics.
struct DfsStats {
  std::uint64_t lookups = 0;  // per-component directory-KV resolutions
  std::uint64_t mkdirs = 0;
  std::uint64_t creates = 0;
  std::uint64_t opens = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t renames = 0;
  std::uint64_t readdirs = 0;
  std::uint64_t unlinks = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  /// Retry attempts driven by the daos retry policy (fault injection).
  std::uint64_t retries = 0;

  /// Adds the counters to `into` under their `dfs.*` names (zero-valued
  /// counters are skipped so dfs-free artifacts stay byte-identical).
  void fold_into(obs::MetricsSnapshot& into) const;
};

DfsStats& operator+=(DfsStats& a, const DfsStats& b);

/// An open regular file: a thin wrapper over the Array handle.
struct File {
  daos::ArrayHandle array;
  [[nodiscard]] bool valid() const { return array.valid(); }
};

/// One mounted dfs namespace per simulated process (mirrors dfs_mount): pool
/// and container connections, the superblock, and a cache of open directory
/// KV handles.  `rank` must be unique across all processes of a workload —
/// it namespaces the object ids this mount allocates, and a mount sharing
/// another's rank fails its creates (see create).
class Dfs {
 public:
  Dfs(daos::Client& client, DfsConfig config, std::uint32_t rank);

  /// Connects to the pool and opens (creating and formatting on first use)
  /// the container named `name`.  The container uuid is a pure function of
  /// `name`, and the superblock is one record inserted with
  /// Client::kv_put_if_absent, so concurrent first mounts see it whole or
  /// not at all: one of them formats, and every mount validates the stored
  /// record against its own config.
  sim::Task<Status> mount(const std::string& name);
  [[nodiscard]] bool mounted() const { return mounted_; }

  sim::Task<Status> mkdir(const std::string& path);
  /// Creates a regular file, exclusively (O_CREAT|O_EXCL): fails with
  /// already_exists when the name is taken.  It also fails with
  /// already_exists when the file's fresh Array id is taken, which happens
  /// only if another mount shares this mount's rank.  A create whose Array
  /// cannot be made removes the name it reserved before it fails.
  sim::Task<Result<File>> create(const std::string& path);
  sim::Task<Result<File>> open(const std::string& path);
  sim::Task<Status> write(File& file, Bytes offset, const std::uint8_t* data, Bytes len);
  sim::Task<Result<Bytes>> read(File& file, Bytes offset, std::uint8_t* out, Bytes len);
  /// Moves the entry `from` to `to` (across directories too).  An existing
  /// regular file at `to` is replaced (its Array punched, freeing its
  /// space); an existing directory at `to` is an error, as is
  /// moving a directory into its own subtree.
  sim::Task<Status> rename(const std::string& from, const std::string& to);
  /// Entry names of the directory, lexicographically sorted (the kv_list
  /// ordering contract).
  sim::Task<Result<std::vector<std::string>>> readdir(const std::string& path);
  /// Removes a regular file (punching its Array, which frees its space) or
  /// an empty directory.
  sim::Task<Status> unlink(const std::string& path);
  sim::Task<void> close(File& file);

  // --- epochs (docs/EPOCHS.md) ----------------------------------------------
  /// Publishes the namespace's pending epoch (directory entries and file
  /// data commit together — one container holds both).
  sim::Task<Result<daos::Epoch>> commit();

  [[nodiscard]] const DfsStats& stats() const { return stats_; }
  [[nodiscard]] daos::Client& client() { return client_; }

 private:
  /// One directory entry record, serialized as the KV value.
  struct Entry {
    EntryType type = EntryType::file;
    daos::ObjectId oid;
  };
  static std::string serialize_entry(const Entry& e);
  static Result<Entry> parse_entry(const std::string& value);

  /// A lookup'd parent directory, ready for an entry operation.
  struct Resolved {
    std::string name;            // final path component
    daos::KvHandle* parent_kv = nullptr;
  };

  /// Cached open of a directory KV.
  sim::Task<Result<daos::KvHandle*>> dir_kv(const daos::ObjectId& oid);
  /// Walks `normalized` from the root; returns its entry record.
  sim::Task<Result<Entry>> lookup(const std::string& normalized);
  /// Walks to the parent of `normalized` and returns its KV + the leaf name.
  sim::Task<Result<Resolved>> resolve_parent(const std::string& normalized);
  /// Entry lookup in one directory KV.
  sim::Task<Result<Entry>> dir_get(daos::KvHandle& kv, const std::string& name);

  daos::ObjectId next_oid(daos::ObjectType type, daos::ObjectClass oclass);

  daos::Client& client_;
  DfsConfig config_;
  std::uint32_t rank_;
  daos::Retrier retrier_;
  std::uint64_t oid_counter_ = 0;

  bool mounted_ = false;
  daos::ContHandle cont_;
  daos::ObjectId root_oid_;
  std::unordered_map<daos::ObjectId, daos::KvHandle, daos::ObjectIdHash> dir_kvs_;
  DfsStats stats_;
};

}  // namespace nws::dfs
