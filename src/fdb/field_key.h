// Weather-field indexing keys.
//
// A field key is "a set of field-specific key-value pairs that uniquely
// identify a field" (paper Section 1.2, Fig. 1).  Storage splits it in two:
// the *most-significant* part identifies the forecast (model run) — e.g.
// "'class': 'od', 'date': '20201224'" — and routes to a forecast's index and
// store containers; the *least-significant* part identifies the field within
// the forecast (parameter, level, step) and indexes the field's Array.
//
// The schema follows ECMWF MARS conventions: class/stream/expver/date/time
// are forecast-identifying; everything else (param, levtype, level, step,
// type, ...) is field-identifying.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace nws::fdb {

class FieldKey {
 public:
  FieldKey() = default;

  /// Sets one key-value pair (overwrites).
  FieldKey& set(const std::string& name, const std::string& value);

  [[nodiscard]] bool has(const std::string& name) const { return pairs_.count(name) != 0; }
  [[nodiscard]] Result<std::string> get(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return pairs_.size(); }
  [[nodiscard]] bool empty() const { return pairs_.empty(); }

  /// Canonical rendering of the full key: "'k1': 'v1', 'k2': 'v2'" with keys
  /// sorted (forecast-identifying keys first, in schema order).
  [[nodiscard]] std::string canonical() const;

  /// The forecast-identifying (most-significant) part, canonical rendering.
  [[nodiscard]] std::string most_significant() const;

  /// The field-identifying (least-significant) part, canonical rendering.
  [[nodiscard]] std::string least_significant() const;

  /// Parses "class=od,date=20201224,param=t,level=850".  Empty pieces,
  /// leading, inner or trailing, are rejected; later duplicates overwrite
  /// earlier ones.
  static Result<FieldKey> parse(const std::string& spec);

  /// The forecast-identifying key names, in canonical order.
  static const std::vector<std::string>& forecast_schema();

  friend bool operator==(const FieldKey&, const FieldKey&) = default;

 private:
  /// Appends one part's pairs to `out`, each preceded by ", " unless `out`
  /// is empty: rendering both parts into one string gives canonical().
  void render(std::string& out, bool most_significant_part) const;

  std::map<std::string, std::string> pairs_;
};

}  // namespace nws::fdb
