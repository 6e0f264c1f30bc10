// nwslint — project-invariant static analysis for the NWP store simulator.
//
// The simulator's value rests on properties the compiler never checks:
// bit-identical replay at any --jobs count, a strict layer DAG, the closed
// obs span/metric namespace, and errno-style Status results that must not
// be dropped.  nwslint enforces them at source level — token/lightweight-
// parse only, no libclang — as named, individually suppressible rules:
//
//   determinism     wall-clock reads (system_clock, time(), clock(), ...),
//                   rand()/srand(), std::random_device, unseeded std
//                   engines, getenv outside the declared NWS_ allowlist,
//                   and pointer-keyed unordered containers in layered
//                   (sim-facing) code, whose iteration order is
//                   address-dependent and can leak into event ordering.
//   layering        every #include "a/..." from src/<b>/ must be an edge
//                   of the layer DAG declared in scripts/nwslint.conf.
//   obs-schema      span/metric name literals must be registered in
//                   scripts/obs_schema.txt with the right category/kind
//                   (tests/ is exempt: it exercises the obs machinery
//                   itself with ad-hoc names).
//   status-discard  a statement that calls a Status- or Result-returning
//                   function and drops the value, including (void)-casts,
//                   which must instead carry an inline suppression.
//   coroutine-ternary
//                   co_await in the second or third operand of ?:, which
//                   GCC 12 can miscompile into a corrupted coroutine frame.
//
// Suppression syntax, with a mandatory reason (see docs/LINTING.md).  A
// trailing comment covers its own line; a comment alone on a line also
// covers the next line; the allow-file form covers the whole file.  Several
// rules may be listed, comma-separated.  Valid examples:
//
//   code();  // NWSLINT(allow:determinism): measures real wall-clock by design
//   // NWSLINT(allow:status-discard): best-effort cleanup, failure is benign
//
// A malformed suppression (unknown rule, missing reason) is itself a
// finding under the reserved rule name "suppression", which cannot be
// suppressed.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/schema.h"

namespace nws::lint {

struct Finding {
  std::string file;  // repo-relative path
  int line = 0;
  std::string rule;  // "coroutine-ternary" | "determinism" | "layering" | "obs-schema" |
                     // "status-discard" | "suppression"
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// Parsed scripts/nwslint.conf plus the shared obs schema registry.
struct Config {
  std::map<std::string, std::set<std::string>> layers;  // layer -> allowed include layers
  std::vector<std::string> env_prefixes;                // getenv literal allowlist
  obs::SchemaRegistry schema;
};

/// Parses conf text (layer/envvar directives) and schema text into a Config;
/// throws std::runtime_error on malformed input or a cyclic layer DAG.
Config parse_config(const std::string& conf_text, const std::string& schema_text);

/// Loads both files via parse_config; throws if either is unreadable.
Config load_config(const std::string& conf_path, const std::string& schema_path);

/// Names of functions declared to return Status or Result<T>, collected in a
/// first pass over the whole tree so discarded calls are caught across
/// translation units.  Name-based analysis cannot disambiguate overloads
/// living on different types, so a name that is ALSO declared with a void
/// return anywhere (e.g. sim::Scheduler::spawn vs ioserver's Status spawn)
/// is treated as ambiguous and skipped — the [[nodiscard]] attribute on
/// Status/Result keeps the compiler covering those call sites.
struct StatusFns {
  std::set<std::string> names;
  std::set<std::string> void_names;  // names seen with a void return

  [[nodiscard]] bool must_check(const std::string& name) const {
    return names.count(name) != 0 && void_names.count(name) == 0;
  }
};

/// Scans one file's content for `Status name(` / `Result<...> name(`
/// declaration patterns and records the names.
void collect_status_fns(const std::string& content, StatusFns& fns);

/// Lints one file.  `rel_path` is repo-relative with forward slashes; it
/// determines the file's layer (src/<layer>/...) and rule scoping (tests/
/// exempt from obs-schema, layered code only for the pointer-key check).
std::vector<Finding> lint_file(const std::string& rel_path, const std::string& content,
                               const Config& config, const StatusFns& fns);

/// Walks `roots` (repo-relative directories or files) under `repo_root`,
/// runs the status-fn collection pass then lints every .h/.cc/.cpp file.
/// Findings are sorted by file then line.
std::vector<Finding> lint_tree(const std::string& repo_root, const std::vector<std::string>& roots,
                               const Config& config);

}  // namespace nws::lint
