// The observability schema registry: the closed namespace of span and
// metric names the project is allowed to emit.
//
// The registry is declared once, in scripts/obs_schema.txt, and consumed by
// two enforcement points that must never drift apart:
//
//   tools/nwslint   — statically, at source level: every span/metric name
//                     literal in src/ and bench/ must be registered;
//   bench/obs_lint  — at runtime, on the --trace/--report artifacts: every
//                     name an actual run emitted must be registered with
//                     the declared kind/category.
//
// Format (line-based, '#' comments, blank lines ignored):
//
//   category <name>              declare a span category (trace "cat" field)
//   span <name> <category>       declare a span name and its category
//   metric <name> <kind>         declare a metric; kind: counter|gauge|histogram
//
// Declarations must precede use (a span's category must already be
// declared); duplicates are parse errors so the registry stays canonical.
#pragma once

#include <map>
#include <set>
#include <string>

namespace nws::obs {

class SchemaRegistry {
 public:
  /// Parses registry text; throws std::runtime_error with a line-numbered
  /// diagnostic on malformed input, unknown kinds, undeclared categories or
  /// duplicate names.
  static SchemaRegistry parse(const std::string& text);

  /// Reads and parses `path`; throws std::runtime_error if unreadable.
  static SchemaRegistry load(const std::string& path);

  [[nodiscard]] bool has_category(const std::string& name) const {
    return categories_.count(name) != 0;
  }
  /// Declared category of span `name`, or nullptr if the span is unknown.
  [[nodiscard]] const std::string* span_category(const std::string& name) const;
  /// Declared kind ("counter" | "gauge" | "histogram") of metric `name`, or
  /// nullptr if the metric is unknown.
  [[nodiscard]] const std::string* metric_kind(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::string>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, std::string>& metrics() const { return metrics_; }
  [[nodiscard]] bool empty() const {
    return categories_.empty() && spans_.empty() && metrics_.empty();
  }

 private:
  std::set<std::string> categories_;
  std::map<std::string, std::string> spans_;    // name -> category
  std::map<std::string, std::string> metrics_;  // name -> kind
};

}  // namespace nws::obs
