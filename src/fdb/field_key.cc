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

void FieldKey::render(std::string& out, bool most_significant_part) const {
  const auto each_pair = [&](const auto& visit) {
    if (most_significant_part) {
      // Schema order for forecast keys, matching the paper's example
      // "'class': 'od', 'date': '20201224'".
      for (const auto& name : forecast_schema()) {
        const auto it = pairs_.find(name);
        if (it != pairs_.end()) visit(name, it->second);
      }
    } else {
      for (const auto& [k, v] : pairs_) {
        if (!is_forecast_key(k)) visit(k, v);
      }
    }
  };
  // Size the output once: "'k': 'v'" quotes a pair in 6 bytes, and ", "
  // precedes every pair but a leading one.
  std::size_t size = out.size();
  each_pair([&](const std::string& k, const std::string& v) { size += (size == 0 ? 6 : 8) + k.size() + v.size(); });
  out.reserve(size);
  each_pair([&](const std::string& k, const std::string& v) { append_pair(out, k, v); });
}

std::string FieldKey::canonical() const {
  std::string out;
  render(out, true);
  render(out, false);
  return out;
}

std::string FieldKey::most_significant() const {
  std::string out;
  render(out, true);
  return out;
}

std::string FieldKey::least_significant() const {
  std::string out;
  render(out, false);
  return out;
}

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
