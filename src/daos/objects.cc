#include "daos/objects.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace nws::daos {

// --- KvObject -----------------------------------------------------------------

const KvObject::Version* KvObject::find(const std::string& key, Epoch epoch) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  const std::vector<Version>& chain = it->second;
  // Chains are epoch-ascending; scan from the newest (chains are short: the
  // retention policy bounds them).
  for (auto v = chain.rbegin(); v != chain.rend(); ++v) {
    if (v->epoch <= epoch) return &*v;
  }
  return nullptr;
}

void KvObject::put(const std::string& key, std::string value, Epoch epoch) {
  std::vector<Version>& chain = entries_[key];
  if (!chain.empty()) {
    if (chain.back().epoch > epoch) {
      throw std::logic_error("KvObject::put at a stale epoch (writes go to the pending epoch)");
    }
    if (chain.back().epoch == epoch) {  // same epoch: one atomic unit of visibility
      chain.back().tombstone = false;
      chain.back().value = std::move(value);
      return;
    }
  }
  chain.push_back(Version{epoch, false, std::move(value)});
}

Result<std::string> KvObject::get(const std::string& key, Epoch epoch) const {
  const Version* v = find(key, epoch);
  if (v == nullptr || v->tombstone) {
    return Status::error(Errc::not_found, "KV key not found: " + key);
  }
  return v->value;
}

Status KvObject::remove(const std::string& key, Epoch epoch) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.back().tombstone) {
    return Status::error(Errc::not_found, "KV key not found: " + key);
  }
  std::vector<Version>& chain = it->second;
  if (chain.back().epoch > epoch) {
    throw std::logic_error("KvObject::remove at a stale epoch");
  }
  if (chain.back().epoch == epoch) {
    chain.back().tombstone = true;
    chain.back().value.clear();
  } else {
    chain.push_back(Version{epoch, true, {}});
  }
  return Status::ok();
}

bool KvObject::contains(const std::string& key, Epoch epoch) const {
  const Version* v = find(key, epoch);
  return v != nullptr && !v->tombstone;
}

std::size_t KvObject::size(Epoch epoch) const {
  std::size_t n = 0;
  for (const auto& [key, chain] : entries_) {
    if (contains(key, epoch)) ++n;
  }
  return n;
}

std::vector<std::string> KvObject::list(Epoch epoch) const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, chain] : entries_) {
    if (contains(key, epoch)) keys.push_back(key);
  }
  return keys;
}

std::size_t KvObject::version_count(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.size();
}

void KvObject::prune(Epoch floor) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    std::vector<Version>& chain = it->second;
    // Keep the newest version at or below the floor as the base; everything
    // older is unobservable by any openable snapshot.
    std::size_t base = 0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].epoch <= floor) base = i;
    }
    // A base tombstone at/below the floor reads identically to absence.
    while (base < chain.size() && chain[base].tombstone && chain[base].epoch <= floor) ++base;
    if (base > 0) {
      if (stats_ != nullptr) {
        stats_->versions_pruned += base;
        for (std::size_t i = 0; i < base; ++i) stats_->bytes_reclaimed += chain[i].value.size();
      }
      chain.erase(chain.begin(), chain.begin() + static_cast<std::ptrdiff_t>(base));
    }
    it = chain.empty() ? entries_.erase(it) : std::next(it);
  }
}

void KvObject::count_live(std::uint64_t& versions, Bytes& bytes) const {
  for (const auto& [key, chain] : entries_) {
    versions += chain.size();
    for (const Version& v : chain) bytes += v.value.size();
  }
}

// --- ArrayObject --------------------------------------------------------------

const ArrayObject::Version* ArrayObject::version_at(Epoch epoch) const {
  for (auto v = versions_.rbegin(); v != versions_.rend(); ++v) {
    if (v->epoch <= epoch) return &*v;
  }
  return nullptr;
}

Bytes ArrayObject::size(Epoch epoch) const {
  const Version* v = version_at(epoch);
  return v == nullptr ? 0 : v->size;
}

bool ArrayObject::exists_at(Epoch epoch) const { return version_at(epoch) != nullptr; }

Bytes ArrayObject::pending_cow_bytes(Epoch epoch, bool retain_superseded) const {
  if (!retain_superseded || versions_.empty()) return 0;
  const Version& newest = versions_.back();
  return newest.epoch < epoch ? newest.size : 0;
}

Bytes ArrayObject::writable_version(Epoch epoch, bool retain_superseded) {
  if (versions_.empty()) {
    Version initial;
    initial.epoch = epoch;
    versions_.push_back(std::move(initial));
    return 0;
  }
  Version& newest = versions_.back();
  if (newest.epoch > epoch) {
    throw std::logic_error(
        "ArrayObject: write at a stale epoch (writes go to the pending epoch)");
  }
  if (newest.epoch == epoch) return 0;
  if (!retain_superseded) {
    // Nothing retains the superseded version: recycle it in place.
    newest.epoch = epoch;
    return 0;
  }
  // Copy-on-write: preserve the committed version for pinned readers.
  Version next = newest;
  next.epoch = epoch;
  const Bytes cow = next.size;
  versions_.push_back(std::move(next));
  if (stats_ != nullptr) stats_->cow_bytes += cow;
  return cow;
}

Bytes ArrayObject::write(Bytes offset, const std::uint8_t* data, Bytes len, Epoch epoch,
                         bool retain_superseded) {
  if (len == 0) return 0;
  if (mode_ == PayloadMode::full && data == nullptr) {
    throw std::invalid_argument("full-mode array write needs data");
  }
  const Bytes cow = writable_version(epoch, retain_superseded);

  Version& v = versions_.back();
  const Bytes end = offset + len;
  if (mode_ == PayloadMode::full) {
    if (offset == 0 && len >= v.bytes.size()) {
      // Covers the whole version: one copy, nothing zero-filled first.
      v.bytes.assign(data, data + len);
    } else {
      // Partial: a hole up to `offset` reads as zeros.
      if (v.bytes.size() < end) v.bytes.resize(end, 0);
      std::memcpy(v.bytes.data() + offset, data, len);
    }
  }
  v.size = std::max(v.size, end);
  return cow;
}

Bytes ArrayObject::read(Bytes offset, std::uint8_t* out, Bytes len, Epoch epoch) const {
  const Version* v = version_at(epoch);
  if (v == nullptr || offset >= v->size) return 0;
  const Bytes n = std::min(len, v->size - offset);
  if (mode_ == PayloadMode::full && out != nullptr) {
    std::memcpy(out, v->bytes.data() + offset, n);
  }
  return n;
}

void ArrayObject::prune(Epoch floor) {
  std::size_t base = 0;
  for (std::size_t i = 0; i < versions_.size(); ++i) {
    if (versions_[i].epoch <= floor) base = i;
  }
  if (base == 0) return;
  if (stats_ != nullptr) {
    stats_->versions_pruned += base;
    for (std::size_t i = 0; i < base; ++i) stats_->bytes_reclaimed += versions_[i].size;
  }
  versions_.erase(versions_.begin(), versions_.begin() + static_cast<std::ptrdiff_t>(base));
}

void ArrayObject::count_live(std::uint64_t& versions, Bytes& bytes) const {
  versions += versions_.size();
  for (const Version& v : versions_) bytes += v.size;
}

// --- Container ----------------------------------------------------------------

Epoch Container::commit() {
  ++committed_;
  ++epoch_stats_.commits;
  aggregate();
  return committed_;
}

Result<Epoch> Container::snapshot_open(Epoch epoch) {
  if (retention_ == 0) {
    return Status::error(Errc::unsupported,
                         "snapshots disabled: epoch retention depth is 0 (nothing is retained)");
  }
  if (epoch == kEpochLatest) epoch = committed_;
  if (epoch > committed_) {
    return Status::error(Errc::invalid, "snapshot of uncommitted epoch " + std::to_string(epoch));
  }
  if (epoch < prune_floor_) {
    return Status::error(Errc::not_found, "epoch " + std::to_string(epoch) +
                                              " aggregated away (retention floor " +
                                              std::to_string(prune_floor_) + ")");
  }
  ++snapshot_refs_[epoch];
  ++epoch_stats_.snapshots_opened;
  return epoch;
}

void Container::snapshot_close(Epoch epoch) {
  const auto it = snapshot_refs_.find(epoch);
  if (it == snapshot_refs_.end()) {
    throw std::logic_error("Container::snapshot_close without a matching open");
  }
  if (--it->second == 0) snapshot_refs_.erase(it);
  ++epoch_stats_.snapshots_released;
  aggregate();  // the oldest pin may have held the floor back
}

void Container::aggregate() {
  Epoch floor = committed_ > retention_ ? committed_ - retention_ : 0;
  if (!snapshot_refs_.empty()) floor = std::min(floor, snapshot_refs_.begin()->first);
  if (floor <= prune_floor_) return;
  prune_floor_ = floor;
  for (auto& [oid, kv] : kvs_) kv->prune(prune_floor_);
  for (auto& [oid, arr] : arrays_) arr->prune(prune_floor_);
}

void Container::count_live(std::uint64_t& versions, Bytes& bytes) const {
  for (const auto& [oid, kv] : kvs_) kv->count_live(versions, bytes);
  for (const auto& [oid, arr] : arrays_) arr->count_live(versions, bytes);
}

KvObject& Container::kv(const ObjectId& oid) {
  if (oid.type() != ObjectType::key_value) throw std::logic_error("kv() on non-KV object id");
  if (arrays_.count(oid) != 0) throw std::logic_error("object id already used by an array");
  auto it = kvs_.find(oid);
  if (it == kvs_.end()) {
    it = kvs_.emplace(oid, std::make_unique<KvObject>(sched_, kv_get_concurrency_, &epoch_stats_))
             .first;
  }
  return *it->second;
}

Result<ArrayObject*> Container::create_array(const ObjectId& oid, PayloadMode mode) {
  if (oid.type() != ObjectType::array) throw std::logic_error("create_array on non-array object id");
  if (has_object(oid)) {
    return Status::error(Errc::already_exists, "array already exists: " + oid.to_string());
  }
  auto arr = std::make_unique<ArrayObject>(sched_, mode, &epoch_stats_);
  ArrayObject* ptr = arr.get();
  arrays_.emplace(oid, std::move(arr));
  return ptr;
}

Result<std::unique_ptr<ArrayObject>> Container::destroy_array(const ObjectId& oid) {
  const auto it = arrays_.find(oid);
  if (it == arrays_.end()) {
    return Status::error(Errc::not_found, "array not found: " + oid.to_string());
  }
  std::unique_ptr<ArrayObject> state = std::move(it->second);
  arrays_.erase(it);
  return state;
}

std::vector<ObjectId> Container::list_arrays() const {
  std::vector<ObjectId> oids;
  oids.reserve(arrays_.size());
  for (const auto& [oid, state] : arrays_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  return oids;
}

std::vector<ObjectId> Container::list_kvs() const {
  std::vector<ObjectId> oids;
  oids.reserve(kvs_.size());
  for (const auto& [oid, state] : kvs_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  return oids;
}

Result<ArrayObject*> Container::open_array(const ObjectId& oid) {
  const auto it = arrays_.find(oid);
  if (it == arrays_.end()) {
    return Status::error(Errc::not_found, "array not found: " + oid.to_string());
  }
  return it->second.get();
}

}  // namespace nws::daos
