#include "fdb/catalogue.h"

namespace nws::fdb {

Catalogue::Catalogue(daos::Client& client, FieldIoConfig config)
    : client_(client),
      config_(config),
      // Jitter stream seeded like FieldIo's, under a catalogue-specific salt,
      // so administrative retries never perturb workload backoff jitter.
      retrier_(client, mix64(client.cluster().config().seed ^ 0xca7a7106ull),
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

}  // namespace nws::fdb
