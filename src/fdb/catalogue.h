// Store catalogue: the administrative view of the field store.
//
// FDB5 ships listing/inspection tools alongside its archive/retrieve API;
// this is their equivalent for the DAOS-backed layout: enumerate forecasts
// from the main index, enumerate the fields of a forecast from its index
// Key-Value, and report per-forecast size statistics.  Works for the "full"
// and "no containers" modes (the "no index" mode keeps no index to list, by
// construction — listing it returns `unsupported`).
#pragma once

#include <string>
#include <vector>

#include "daos/client.h"
#include "fdb/field_io.h"

namespace nws::fdb {

struct FieldEntry {
  std::string field_key;    // least-significant key part
  daos::ObjectId array;     // current array object id
  Bytes size = 0;           // stored field size
};

struct ForecastEntry {
  std::string forecast_key;  // most-significant key part
  std::size_t field_count = 0;
  Bytes total_bytes = 0;
};

class Catalogue {
 public:
  Catalogue(daos::Client& client, FieldIoConfig config);

  sim::Task<Status> init();

  /// Retry attempts the catalogue's operations needed (fault injection);
  /// mirrors FieldIoStats::retries.  Listing runs under FieldIo's retry
  /// policy (daos/retry.h), so administrative sweeps survive injected
  /// target outages too.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

  /// Forecasts registered in the main index, with field counts and sizes.
  sim::Task<Result<std::vector<ForecastEntry>>> list_forecasts();

  /// Fields of one forecast (by most-significant key part).
  sim::Task<Result<std::vector<FieldEntry>>> list_fields(const std::string& forecast_key);

 private:
  struct ForecastContainers {
    daos::ContHandle index;
    daos::ContHandle store;
  };
  /// Full mode: looks the forecast up in the main index, then opens its
  /// index and store containers.
  sim::Task<Result<ForecastContainers>> open_containers(const std::string& forecast_key);
  sim::Task<Result<std::vector<FieldEntry>>> fields_of(const std::string& forecast_key,
                                                       daos::ContHandle index_cont,
                                                       daos::ContHandle store_cont);

  daos::Client& client_;
  FieldIoConfig config_;
  /// Drives the daos retry policy over client_ (daos/retry.h); counts into
  /// retries_.
  daos::Retrier retrier_;
  std::uint64_t retries_ = 0;
  bool initialised_ = false;
  daos::ContHandle main_cont_;
  daos::KvHandle main_kv_;
};

}  // namespace nws::fdb
