#include "fdb/field_io.h"

#include <cinttypes>
#include <stdexcept>

#include "common/table.h"

namespace nws::fdb {

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::full: return "full";
    case Mode::no_containers: return "no containers";
    case Mode::no_index: return "no index";
  }
  return "?";
}

Mode mode_by_name(const std::string& name) {
  if (name == "full") return Mode::full;
  if (name == "no-containers" || name == "no_containers") return Mode::no_containers;
  if (name == "no-index" || name == "no_index") return Mode::no_index;
  throw std::invalid_argument("unknown field I/O mode: " + name +
                              " (expected full, no-containers or no-index)");
}

std::string oid_to_string(const daos::ObjectId& oid) {
  return strf("%016" PRIx64 ".%016" PRIx64, oid.hi, oid.lo);
}

Result<daos::ObjectId> oid_from_string(const std::string& s) {
  daos::ObjectId oid;
  if (s.size() != 33 || s[16] != '.' ||
      std::sscanf(s.c_str(), "%16" SCNx64 ".%16" SCNx64, &oid.hi, &oid.lo) != 2) {
    return Status::error(Errc::invalid, "malformed object id string: " + s);
  }
  return oid;
}

FieldIo::FieldIo(daos::Client& client, FieldIoConfig config, std::uint32_t rank)
    : client_(client),
      config_(config),
      rank_(rank),
      // Seeded from (cluster seed, rank) without drawing from the cluster's
      // own stream, so enabling retries never perturbs unrelated jitter.
      retrier_(client, mix64(client.cluster().config().seed ^ (0xf1e1d100ull + rank)),
               &stats_.retries) {
  // KV objects are replicated, never erasure coded: parity over a keyspace
  // has no defined chunking, and real DAOS likewise restricts EC to arrays.
  if (daos::ec_data_shards(config_.kv_class) > 0) {
    throw std::invalid_argument(std::string("erasure-coded kv_class is unsupported: ") +
                                daos::object_class_name(config_.kv_class));
  }
}

sim::Task<Status> FieldIo::init() {
  if (initialised_) co_return Status::ok();
  co_await client_.pool_connect();
  main_cont_ = co_await client_.main_cont_open();
  if (config_.mode != Mode::no_index) {
    main_kv_ = co_await client_.kv_open(main_cont_, main_index_oid(config_.kv_class));
  }
  initialised_ = true;
  co_return Status::ok();
}

daos::ObjectId FieldIo::next_array_oid() {
  return daos::ObjectId::generate(rank_, array_counter_++, daos::ObjectType::array, config_.array_class);
}

sim::Task<Result<FieldIo::ForecastHandles*>> FieldIo::resolve_forecast_for_write(const std::string& msk) {
  const auto cached = forecasts_.find(msk);
  if (cached != forecasts_.end()) co_return &cached->second;

  ForecastHandles handles;

  if (config_.mode == Mode::no_containers) {
    // Both layers collapse onto the main container; the main and forecast
    // index Key-Values remain (only the container indirection is removed).
    handles.index_cont = main_cont_;
    handles.store_cont = main_cont_;
    handles.index_kv = co_await client_.kv_open(main_cont_, forecast_kv_oid(msk));
    auto indexed = co_await retrier_.run_result<std::string>(
        [&] { return client_.kv_get(main_kv_, msk); });
    if (!indexed.is_ok()) {
      if (indexed.status().code() != Errc::not_found) co_return indexed.status();
      const Status registered =
          co_await retrier_.run([&] { return client_.kv_put(main_kv_, msk, msk + ":kv"); });
      if (!registered.is_ok()) co_return registered;
    }
    co_return &forecasts_.emplace(msk, handles).first->second;
  }

  // Algorithm 1: query the main index for the forecast.
  auto indexed = co_await retrier_.run_result<std::string>(
      [&] { return client_.kv_get(main_kv_, msk); });
  if (indexed.is_ok()) co_return co_await open_indexed_forecast(msk);
  if (indexed.status().code() != Errc::not_found) co_return indexed.status();

  // Not indexed yet: create the forecast index and store containers.  Ids
  // are md5 sums of the most-significant key part, so concurrent creators
  // collide on already_exists and proceed to open (Section 4).
  const daos::Uuid index_uuid = index_container_uuid(msk);
  const daos::Uuid store_uuid = store_container_uuid(msk);
  for (const daos::Uuid& uuid : {index_uuid, store_uuid}) {
    const Status created = co_await retrier_.run([&] { return client_.cont_create(uuid); });
    if (!created.is_ok() && created.code() != Errc::already_exists) co_return created;
  }
  auto index_cont = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_open(index_uuid); });
  if (!index_cont.is_ok()) co_return index_cont.status();
  handles.index_cont = index_cont.value();
  auto store_cont = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_open(store_uuid); });
  if (!store_cont.is_ok()) co_return store_cont.status();
  handles.store_cont = store_cont.value();

  // Register the store container id in the forecast index KV, then register
  // the forecast in the main index.
  handles.index_kv = co_await client_.kv_open(handles.index_cont, forecast_kv_oid(msk));
  const Status store_reg = co_await retrier_.run(
      [&] { return client_.kv_put(handles.index_kv, kStoreContainerEntry, store_container_name(msk)); });
  if (!store_reg.is_ok()) co_return store_reg;
  const Status main_reg =
      co_await retrier_.run([&] { return client_.kv_put(main_kv_, msk, index_container_name(msk)); });
  if (!main_reg.is_ok()) co_return main_reg;

  co_return &forecasts_.emplace(msk, handles).first->second;
}

sim::Task<Result<FieldIo::ForecastHandles*>> FieldIo::resolve_forecast_for_read(const std::string& msk) {
  const auto cached = forecasts_.find(msk);
  if (cached != forecasts_.end()) co_return &cached->second;

  if (config_.mode == Mode::no_containers) {
    auto indexed = co_await retrier_.run_result<std::string>(
        [&] { return client_.kv_get(main_kv_, msk); });
    if (!indexed.is_ok()) co_return indexed.status();  // unknown forecasts fail
    ForecastHandles handles;
    handles.index_cont = main_cont_;
    handles.store_cont = main_cont_;
    handles.index_kv = co_await client_.kv_open(main_cont_, forecast_kv_oid(msk));
    co_return &forecasts_.emplace(msk, handles).first->second;
  }

  // Algorithm 2: unknown forecasts fail.
  auto indexed = co_await retrier_.run_result<std::string>(
      [&] { return client_.kv_get(main_kv_, msk); });
  if (!indexed.is_ok()) co_return indexed.status();
  co_return co_await open_indexed_forecast(msk);
}

sim::Task<Result<FieldIo::ForecastHandles*>> FieldIo::open_indexed_forecast(const std::string& msk) {
  ForecastHandles handles;
  const daos::Uuid index_uuid = index_container_uuid(msk);
  auto index_cont = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_open(index_uuid); });
  if (!index_cont.is_ok()) co_return index_cont.status();
  handles.index_cont = index_cont.value();
  handles.index_kv = co_await client_.kv_open(handles.index_cont, forecast_kv_oid(msk));
  auto store_ref = co_await retrier_.run_result<std::string>(
      [&] { return client_.kv_get(handles.index_kv, kStoreContainerEntry); });
  if (!store_ref.is_ok()) co_return store_ref.status();
  const daos::Uuid store_uuid = daos::Uuid::from_string_md5(store_ref.value());
  auto store_cont = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_open(store_uuid); });
  if (!store_cont.is_ok()) co_return store_cont.status();
  handles.store_cont = store_cont.value();
  co_return &forecasts_.emplace(msk, handles).first->second;
}

sim::Task<Status> FieldIo::write(const FieldKey& key, const std::uint8_t* data, Bytes len) {
  if (!initialised_) throw std::logic_error("FieldIo::write before init()");
  if (len == 0) co_return Status::error(Errc::invalid, "zero-length field");

  if (config_.mode == Mode::no_index) {
    // Field identifier maps directly to the Array object id; re-writes
    // overwrite the same Array (contention moves to the Array level).  The
    // handle is cached after the first create/open, so a re-write skips the
    // round-trips entirely.
    const daos::ObjectId oid = no_index_oid(key);
    daos::ArrayHandle handle;
    const auto cached = arrays_.find(oid);
    if (cached != arrays_.end()) {
      handle = cached->second;
    } else {
      auto arr = co_await retrier_.run_result<daos::ArrayHandle>(
          [&] { return client_.array_create(main_cont_, oid); });
      if (arr.is_ok()) {
        handle = arr.value();
      } else if (arr.status().code() == Errc::already_exists) {
        auto opened = co_await retrier_.run_result<daos::ArrayHandle>(
            [&] { return client_.array_open(main_cont_, oid); });
        if (!opened.is_ok()) co_return opened.status();
        handle = opened.value();
      } else {
        co_return arr.status();
      }
      arrays_.emplace(oid, handle);
    }
    const Status written =
        co_await retrier_.run([&] { return client_.array_write(handle, 0, data, len); });
    if (!written.is_ok()) co_return written;
    ++stats_.fields_written;
    stats_.bytes_written += len;
    co_return Status::ok();
  }

  auto forecast = co_await resolve_forecast_for_write(key.most_significant());
  if (!forecast.is_ok()) co_return forecast.status();
  ForecastHandles& handles = *forecast.value();

  // Write the field into a new Array in the forecast store container...
  const daos::ObjectId oid = next_array_oid();
  auto arr = co_await retrier_.run_result<daos::ArrayHandle>(
      [&] { return client_.array_create(handles.store_cont, oid); });
  if (!arr.is_ok()) co_return arr.status();
  auto handle = arr.value();
  const Status written =
      co_await retrier_.run([&] { return client_.array_write(handle, 0, data, len); });
  co_await client_.array_close(handle);
  if (!written.is_ok()) co_return written;

  // ...then index it (replacing any previous reference: the old Array is
  // de-referenced, never deleted).
  const std::string field_entry = key.least_significant();
  const Status indexed = co_await retrier_.run(
      [&] { return client_.kv_put(handles.index_kv, field_entry, oid_to_string(oid)); });
  if (!indexed.is_ok()) co_return indexed;

  ++stats_.fields_written;
  stats_.bytes_written += len;
  co_return Status::ok();
}

sim::Task<Result<daos::Epoch>> FieldIo::commit(const FieldKey& key) {
  if (!initialised_) throw std::logic_error("FieldIo::commit before init()");

  if (config_.mode == Mode::no_index || config_.mode == Mode::no_containers) {
    auto committed =
        co_await retrier_.run_result<daos::Epoch>([&] { return client_.cont_commit(main_cont_); });
    if (committed.is_ok()) ++stats_.commits;
    co_return committed;
  }

  auto forecast = co_await resolve_forecast_for_write(key.most_significant());
  if (!forecast.is_ok()) co_return forecast.status();
  ForecastHandles& handles = *forecast.value();
  // Store first, then index: a committed index entry then never references
  // array data that is still uncommitted by the same commit call.
  auto store = co_await retrier_.run_result<daos::Epoch>(
      [&] { return client_.cont_commit(handles.store_cont); });
  if (!store.is_ok()) co_return store.status();
  auto index = co_await retrier_.run_result<daos::Epoch>(
      [&] { return client_.cont_commit(handles.index_cont); });
  if (index.is_ok()) ++stats_.commits;
  co_return index;
}

sim::Task<Result<daos::Epoch>> FieldIo::pin_snapshot(const FieldKey& key, daos::Epoch epoch) {
  if (!initialised_) throw std::logic_error("FieldIo::pin_snapshot before init()");
  const std::string msk = key.most_significant();
  if (pinned_.count(msk) != 0) {
    co_return Status::error(Errc::invalid, "forecast already pinned: " + msk);
  }

  PinnedForecast pin;
  if (config_.mode == Mode::no_index || config_.mode == Mode::no_containers) {
    auto snap = co_await retrier_.run_result<daos::ContHandle>(
        [&] { return client_.cont_snapshot(main_cont_, epoch); });
    if (!snap.is_ok()) co_return snap.status();
    pin.store_cont = snap.value();
    pin.shared_cont = true;
    if (config_.mode == Mode::no_containers) {
      pin.index_cont = snap.value();
      pin.index_kv = co_await client_.kv_open(pin.index_cont, forecast_kv_oid(msk));
    }
    ++stats_.snapshot_pins;
    const daos::Epoch pinned_epoch = pin.store_cont.epoch;
    pinned_.emplace(msk, pin);
    co_return pinned_epoch;
  }

  auto forecast = co_await resolve_forecast_for_read(msk);
  if (!forecast.is_ok()) co_return forecast.status();
  ForecastHandles& handles = *forecast.value();
  // Pin the index (publication point) first, then the store: every entry
  // visible at the pinned index epoch was committed before the store pin,
  // so its array is at or below the pinned store epoch whenever the writer
  // committed store-then-index through commit().
  auto index_snap = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_snapshot(handles.index_cont, epoch); });
  if (!index_snap.is_ok()) co_return index_snap.status();
  pin.index_cont = index_snap.value();
  auto store_snap = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_snapshot(handles.store_cont, epoch); });
  if (!store_snap.is_ok()) {
    (co_await client_.snapshot_close(pin.index_cont)).expect_ok("snapshot_close");
    co_return store_snap.status();
  }
  pin.store_cont = store_snap.value();
  pin.index_kv = co_await client_.kv_open(pin.index_cont, forecast_kv_oid(msk));
  ++stats_.snapshot_pins;
  const daos::Epoch pinned_epoch = pin.index_cont.epoch;
  pinned_.emplace(msk, pin);
  co_return pinned_epoch;
}

sim::Task<Status> FieldIo::unpin_snapshot(const FieldKey& key) {
  if (!initialised_) throw std::logic_error("FieldIo::unpin_snapshot before init()");
  const auto it = pinned_.find(key.most_significant());
  if (it == pinned_.end()) co_return Status::ok();
  PinnedForecast pin = it->second;
  pinned_.erase(it);
  (co_await client_.snapshot_close(pin.store_cont)).expect_ok("snapshot_close(store)");
  if (!pin.shared_cont && pin.index_cont.valid()) {
    (co_await client_.snapshot_close(pin.index_cont)).expect_ok("snapshot_close(index)");
  }
  co_return Status::ok();
}

sim::Task<Result<Bytes>> FieldIo::read(const FieldKey& key, std::uint8_t* out, Bytes out_len) {
  if (!initialised_) throw std::logic_error("FieldIo::read before init()");

  // A pinned forecast reads through its snapshot handles; otherwise the live
  // handles come via the main index (no_index mode needs none: its arrays
  // live in the main container).
  const std::string msk = key.most_significant();
  const auto pinned = pinned_.find(msk);
  const bool is_pinned = pinned != pinned_.end();
  ForecastHandles* forecast = is_pinned ? &pinned->second : nullptr;
  if (!is_pinned && config_.mode != Mode::no_index) {
    auto resolved = co_await resolve_forecast_for_read(msk);
    if (!resolved.is_ok()) co_return resolved.status();
    forecast = resolved.value();
  }

  daos::ObjectId oid;
  if (config_.mode == Mode::no_index) {
    oid = no_index_oid(key);
  } else {
    const std::string field_entry = key.least_significant();
    auto ref = co_await retrier_.run_result<std::string>(
        [&] { return client_.kv_get(forecast->index_kv, field_entry); });
    if (!ref.is_ok()) co_return ref.status();
    auto parsed = oid_from_string(ref.value());
    if (!parsed.is_ok()) co_return parsed.status();
    oid = parsed.value();
  }

  // Re-reads of the same field (pattern B readers polling a designated key)
  // hit the cached handle and skip the open/close round-trips.  The cache
  // holds live handles and must not serve a snapshot, so a pinned read opens
  // the array at the snapshot epoch and closes it every time.
  daos::ArrayHandle handle;
  const auto cached = is_pinned ? arrays_.end() : arrays_.find(oid);
  if (cached != arrays_.end()) {
    handle = cached->second;
  } else {
    const daos::ContHandle store_cont = forecast != nullptr ? forecast->store_cont : main_cont_;
    auto opened = co_await retrier_.run_result<daos::ArrayHandle>(
        [&] { return client_.array_open(store_cont, oid); });
    if (!opened.is_ok()) co_return opened.status();
    handle = opened.value();
    if (!is_pinned) arrays_.emplace(oid, handle);
  }
  auto n = co_await retrier_.run_result<Bytes>(
      [&] { return client_.array_read(handle, 0, out, out_len); });
  if (is_pinned) co_await client_.array_close(handle);
  if (!n.is_ok()) co_return n.status();
  ++stats_.fields_read;
  stats_.bytes_read += n.value();
  co_return n.value();
}

}  // namespace nws::fdb
