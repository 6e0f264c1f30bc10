#include "fdb/field_key.h"

#include <algorithm>

namespace nws::fdb {

const std::vector<std::string>& FieldKey::forecast_schema() {
  static const std::vector<std::string> schema{"class", "stream", "expver", "date", "time"};
  return schema;
}

FieldKey& FieldKey::set(const std::string& name, const std::string& value) {
  pairs_[name] = value;
  return *this;
}

Result<std::string> FieldKey::get(const std::string& name) const {
  const auto it = pairs_.find(name);
  if (it == pairs_.end()) return Status::error(Errc::not_found, "key has no entry: " + name);
  return it->second;
}

namespace {
bool is_forecast_key(const std::string& name) {
  const auto& schema = FieldKey::forecast_schema();
  return std::find(schema.begin(), schema.end(), name) != schema.end();
}

void append_pair(std::string& out, const std::string& k, const std::string& v) {
  if (!out.empty()) out += ", ";
  out += '\'';
  out += k;
  out += "': '";
  out += v;
  out += '\'';
}
}  // namespace

std::string FieldKey::render(bool forecast_part, bool field_part) const {
  const auto each_pair = [&](const auto& visit) {
    if (forecast_part) {
      // Schema order for forecast keys, matching the paper's example
      // "'class': 'od', 'date': '20201224'".
      for (const auto& name : forecast_schema()) {
        const auto it = pairs_.find(name);
        if (it != pairs_.end()) visit(name, it->second);
      }
    }
    if (field_part) {
      for (const auto& [k, v] : pairs_) {
        if (!is_forecast_key(k)) visit(k, v);
      }
    }
  };
  // Size the output once: "'k': 'v'" quotes a pair in 6 bytes, and ", "
  // precedes every pair but the first.
  std::size_t size = 0;
  each_pair([&](const std::string& k, const std::string& v) { size += (size == 0 ? 6 : 8) + k.size() + v.size(); });
  std::string out;
  out.reserve(size);
  each_pair([&](const std::string& k, const std::string& v) { append_pair(out, k, v); });
  return out;
}

std::string FieldKey::canonical() const { return render(true, true); }

std::string FieldKey::most_significant() const { return render(true, false); }

std::string FieldKey::least_significant() const { return render(false, true); }

Result<FieldKey> FieldKey::parse(const std::string& spec) {
  if (spec.empty()) return Status::error(Errc::invalid, "empty field key spec");
  FieldKey key;
  std::size_t start = 0;
  while (true) {
    auto comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string piece = spec.substr(start, comma - start);
    const auto eq = piece.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= piece.size()) {
      return Status::error(Errc::invalid, "malformed field key piece: '" + piece + "'");
    }
    key.set(piece.substr(0, eq), piece.substr(eq + 1));
    if (comma == spec.size()) return key;
    start = comma + 1;
  }
}

}  // namespace nws::fdb
