#include "fdb/catalogue.h"

#include <algorithm>

namespace nws::fdb {

Catalogue::Catalogue(daos::Client& client, FieldIoConfig config)
    : client_(client),
      config_(config),
      // Jitter stream seeded like FieldIo's, under a catalogue-specific salt,
      // so administrative retries never perturb workload backoff jitter.
      retrier_(client, daos::RetryPolicy{}, mix64(client.cluster().config().seed ^ 0xca7a7106ull),
               &retries_) {}

sim::Task<Status> Catalogue::init() {
  if (initialised_) co_return Status::ok();
  if (config_.mode == Mode::no_index) {
    co_return Status::error(Errc::unsupported,
                            "the 'no index' mode keeps no index to catalogue (object ids are "
                            "md5 sums of field keys)");
  }
  (void)co_await client_.pool_connect();
  main_cont_ = co_await client_.main_cont_open();
  main_kv_ = co_await client_.kv_open(main_cont_, main_index_oid(config_.kv_class));
  initialised_ = true;
  co_return Status::ok();
}

sim::Task<Result<std::vector<FieldEntry>>> Catalogue::fields_of(const std::string& forecast_key,
                                                                daos::ContHandle index_cont,
                                                                daos::ContHandle store_cont) {
  daos::KvHandle index_kv =
      co_await client_.kv_open(index_cont, forecast_index_oid(forecast_key, config_.kv_class));

  std::vector<FieldEntry> fields;
  for (const std::string& key : co_await client_.kv_list(index_kv)) {
    if (key == kStoreContainerEntry) continue;
    auto ref = co_await retrier_.run_result<std::string>(
        [&] { return client_.kv_get(index_kv, key); });
    if (!ref.is_ok()) co_return ref.status();
    auto oid = oid_from_string(ref.value());
    if (!oid.is_ok()) co_return oid.status();

    FieldEntry entry;
    entry.field_key = key;
    entry.array = oid.value();
    auto array = co_await retrier_.run_result<daos::ArrayHandle>(
        [&] { return client_.array_open(store_cont, entry.array); });
    if (array.is_ok()) {
      auto handle = array.value();
      entry.size = co_await client_.array_get_size(handle);
      co_await client_.array_close(handle);
    } else if (array.status().code() != Errc::not_found) {
      // A transiently unreachable array must fail the listing (silently
      // reporting size 0 would corrupt totals under injected faults); only a
      // genuinely absent array — destroyed concurrently — degrades to 0.
      co_return array.status();
    }
    fields.push_back(std::move(entry));
  }
  co_return fields;
}

sim::Task<Result<Catalogue::ForecastContainers>> Catalogue::open_containers(
    const std::string& forecast_key) {
  auto exists = co_await retrier_.run_result<std::string>(
      [&] { return client_.kv_get(main_kv_, forecast_key); });
  if (!exists.is_ok()) co_return exists.status();
  const daos::Uuid index_uuid = index_container_uuid(forecast_key);
  auto opened_index = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_open(index_uuid); });
  if (!opened_index.is_ok()) co_return opened_index.status();
  const daos::Uuid store_uuid = store_container_uuid(forecast_key);
  auto opened_store = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_open(store_uuid); });
  if (!opened_store.is_ok()) co_return opened_store.status();
  co_return ForecastContainers{opened_index.value(), opened_store.value()};
}

sim::Task<Result<std::vector<FieldEntry>>> Catalogue::list_fields(const std::string& forecast_key) {
  if (!initialised_) throw std::logic_error("Catalogue::list_fields before init()");
  if (config_.mode != Mode::full) co_return co_await fields_of(forecast_key, main_cont_, main_cont_);
  auto opened = co_await open_containers(forecast_key);
  if (!opened.is_ok()) co_return opened.status();
  co_return co_await fields_of(forecast_key, opened.value().index, opened.value().store);
}

sim::Task<Result<std::vector<FieldEntry>>> Catalogue::list_fields_at(const std::string& forecast_key,
                                                                     daos::Epoch epoch) {
  if (!initialised_) throw std::logic_error("Catalogue::list_fields_at before init()");

  if (config_.mode != Mode::full) {
    // Collapsed layout: one pinned view of the main container covers both
    // the index Key-Value and the field arrays.
    auto snap = co_await retrier_.run_result<daos::ContHandle>(
        [&] { return client_.cont_snapshot(main_cont_, epoch); });
    if (!snap.is_ok()) co_return snap.status();
    daos::ContHandle pinned = snap.value();
    auto fields = co_await fields_of(forecast_key, pinned, pinned);
    (co_await client_.snapshot_close(pinned)).expect_ok("Catalogue snapshot release");
    co_return fields;
  }

  auto opened = co_await open_containers(forecast_key);
  if (!opened.is_ok()) co_return opened.status();

  // Pin the index (publication point) first, then the store — the same
  // order as FieldIo::pin_snapshot, for the same reason: every entry
  // visible at the pinned index epoch was published before the store pin.
  auto index_snap = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_snapshot(opened.value().index, epoch); });
  if (!index_snap.is_ok()) co_return index_snap.status();
  daos::ContHandle index_cont = index_snap.value();
  auto store_snap = co_await retrier_.run_result<daos::ContHandle>(
      [&] { return client_.cont_snapshot(opened.value().store, epoch); });
  if (!store_snap.is_ok()) {
    (co_await client_.snapshot_close(index_cont)).expect_ok("Catalogue snapshot release");
    co_return store_snap.status();
  }
  daos::ContHandle store_cont = store_snap.value();

  auto fields = co_await fields_of(forecast_key, index_cont, store_cont);
  (co_await client_.snapshot_close(store_cont)).expect_ok("Catalogue snapshot release");
  (co_await client_.snapshot_close(index_cont)).expect_ok("Catalogue snapshot release");
  co_return fields;
}

sim::Task<Result<std::vector<ForecastEntry>>> Catalogue::list_forecasts() {
  if (!initialised_) throw std::logic_error("Catalogue::list_forecasts before init()");

  std::vector<ForecastEntry> forecasts;
  for (const std::string& forecast_key : co_await client_.kv_list(main_kv_)) {
    auto fields = co_await list_fields(forecast_key);
    if (!fields.is_ok()) co_return fields.status();
    ForecastEntry entry;
    entry.forecast_key = forecast_key;
    entry.field_count = fields.value().size();
    for (const FieldEntry& f : fields.value()) entry.total_bytes += f.size;
    forecasts.push_back(std::move(entry));
  }
  co_return forecasts;
}

sim::Task<Result<Catalogue::PurgeReport>> Catalogue::purge(const std::string& forecast_key) {
  if (!initialised_) throw std::logic_error("Catalogue::purge before init()");

  // Resolve the store container and the set of referenced array ids.
  daos::ContHandle store_cont = main_cont_;
  if (config_.mode == Mode::full) {
    auto exists = co_await retrier_.run_result<std::string>(
        [&] { return client_.kv_get(main_kv_, forecast_key); });
    if (!exists.is_ok()) co_return exists.status();
    const daos::Uuid store_uuid = store_container_uuid(forecast_key);
    auto opened = co_await retrier_.run_result<daos::ContHandle>(
        [&] { return client_.cont_open(store_uuid); });
    if (!opened.is_ok()) co_return opened.status();
    store_cont = opened.value();
  }
  auto fields = co_await list_fields(forecast_key);
  if (!fields.is_ok()) co_return fields.status();
  std::vector<daos::ObjectId> referenced;
  referenced.reserve(fields.value().size());
  for (const FieldEntry& field : fields.value()) referenced.push_back(field.array);
  std::sort(referenced.begin(), referenced.end());

  // In "no containers" mode the main container also holds other forecasts'
  // arrays; restrict the sweep to full mode's per-forecast store container,
  // where every array belongs to this forecast.
  if (config_.mode != Mode::full) {
    co_return Status::error(Errc::unsupported,
                            "purge requires per-forecast store containers (full mode)");
  }

  PurgeReport report;
  for (const daos::ObjectId& oid : store_cont.container->list_arrays()) {
    if (std::binary_search(referenced.begin(), referenced.end(), oid)) continue;
    auto opened = co_await retrier_.run_result<daos::ArrayHandle>(
        [&] { return client_.array_open(store_cont, oid); });
    Bytes size = 0;
    if (opened.is_ok()) {
      auto handle = opened.value();
      size = co_await client_.array_get_size(handle);
      co_await client_.array_close(handle);
    } else if (opened.status().code() != Errc::not_found) {
      co_return opened.status();
    }
    const Status destroyed =
        co_await retrier_.run([&] { return client_.array_destroy(store_cont, oid); });
    if (!destroyed.is_ok()) co_return destroyed;
    ++report.arrays_destroyed;
    report.bytes_reclaimed += size;
  }
  co_return report;
}

sim::Task<Result<Bytes>> Catalogue::referenced_bytes() {
  auto forecasts = co_await list_forecasts();
  if (!forecasts.is_ok()) co_return forecasts.status();
  Bytes total = 0;
  for (const ForecastEntry& f : forecasts.value()) total += f.total_bytes;
  co_return total;
}

}  // namespace nws::fdb
