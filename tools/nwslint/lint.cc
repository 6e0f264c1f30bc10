#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace nws::lint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer: identifiers, string literals, numbers and punctuation with line
// numbers, plus the comment stream (for NWSLINT suppression directives).
// Character and string literals are fully consumed so their contents can
// never be mistaken for code; raw strings are handled.

struct Tok {
  enum class Kind { ident, string, number, punct };
  Kind kind;
  std::string text;
  int line = 0;

  [[nodiscard]] bool is(const char* t) const { return text == t; }
  [[nodiscard]] bool is_ident() const { return kind == Kind::ident; }
  [[nodiscard]] bool is_string() const { return kind == Kind::string; }
};

struct Comment {
  std::string text;
  int line = 0;      // line the comment starts on
  int end_line = 0;  // line it ends on (block comments may span lines)
  bool own_line = false;  // no code precedes it on its starting line
};

struct Lexed {
  std::vector<Tok> toks;
  std::vector<Comment> comments;
};

Lexed lex(const std::string& src) {
  Lexed out;
  int line = 1;
  int last_tok_line = 0;
  std::size_t i = 0;
  const std::size_t n = src.size();
  const auto push = [&](Tok::Kind kind, std::string text) {
    out.toks.push_back({kind, std::move(text), line});
    last_tok_line = line;
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t j = i + 2;
      while (j < n && src[j] != '\n') ++j;
      out.comments.push_back({src.substr(i + 2, j - i - 2), line, line, last_tok_line != line});
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start = line;
      const bool own = last_tok_line != line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        ++j;
      }
      out.comments.push_back({src.substr(i + 2, j - i - 2), start, line, own});
      i = j + 1 < n ? j + 2 : n;
      continue;
    }
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {  // raw string R"delim(...)delim"
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, j);
      const std::size_t stop = end == std::string::npos ? n : end;
      std::string body = src.substr(j + 1, stop - j - 1);
      for (const char ch : body) {
        if (ch == '\n') ++line;
      }
      push(Tok::Kind::string, std::move(body));
      i = stop == n ? n : stop + closer.size();
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string body;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) {
          body += src[j];
          body += src[j + 1];
          j += 2;
          continue;
        }
        if (src[j] == '\n') ++line;  // unterminated literal; keep line counts sane
        body += src[j++];
      }
      if (quote == '"') push(Tok::Kind::string, std::move(body));
      i = j < n ? j + 1 : n;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) != 0 || src[j] == '_')) ++j;
      push(Tok::Kind::ident, src.substr(i, j - i));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) != 0 || src[j] == '.' ||
                       src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > 0 &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                         src[j - 1] == 'P')))) {
        ++j;
      }
      push(Tok::Kind::number, src.substr(i, j - i));
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      push(Tok::Kind::punct, "::");
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      push(Tok::Kind::punct, "->");
      i += 2;
      continue;
    }
    push(Tok::Kind::punct, std::string(1, c));
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions.

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {"coroutine-ternary", "determinism", "layering",
                                             "obs-schema", "status-discard"};
  return rules;
}

struct Suppressions {
  std::map<std::string, std::set<int>> lines;  // rule -> suppressed lines
  std::set<std::string> whole_file;            // rules suppressed file-wide
  std::vector<Finding> errors;                 // malformed directives

  [[nodiscard]] bool covers(const std::string& rule, int line) const {
    if (whole_file.count(rule) != 0) return true;
    const auto it = lines.find(rule);
    return it != lines.end() && it->second.count(line) != 0;
  }
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

Suppressions collect_suppressions(const std::string& rel_path, const std::vector<Comment>& comments) {
  Suppressions sup;
  for (const Comment& comment : comments) {
    const std::size_t at = comment.text.find("NWSLINT(");
    if (at == std::string::npos) continue;
    const auto bad = [&](const std::string& why) {
      sup.errors.push_back({rel_path, comment.line, "suppression", why});
    };
    std::string rest = comment.text.substr(at + 8);  // skip past the directive marker
    bool file_wide = false;
    if (rest.rfind("allow-file:", 0) == 0) {
      file_wide = true;
      rest = rest.substr(11);
    } else if (rest.rfind("allow:", 0) == 0) {
      rest = rest.substr(6);
    } else {
      bad("malformed NWSLINT directive: expected NWSLINT(allow:<rule>) or NWSLINT(allow-file:<rule>)");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string::npos) {
      bad("malformed NWSLINT directive: missing ')'");
      continue;
    }
    // Comma-separated rule list.
    std::vector<std::string> rules;
    std::stringstream rule_stream(rest.substr(0, close));
    std::string rule;
    bool rules_ok = true;
    while (std::getline(rule_stream, rule, ',')) {
      rule = trim(rule);
      if (known_rules().count(rule) == 0) {
        bad("NWSLINT suppression names unknown rule '" + rule + "'");
        rules_ok = false;
        break;
      }
      rules.push_back(rule);
    }
    if (!rules_ok) continue;
    if (rules.empty()) {
      bad("NWSLINT suppression names no rule");
      continue;
    }
    // Mandatory reason: "): <non-empty text>".
    const std::string after = trim(rest.substr(close + 1));
    if (after.empty() || after[0] != ':' || trim(after.substr(1)).empty()) {
      bad("NWSLINT suppression lacks a reason (write: NWSLINT(allow:<rule>): <reason>)");
      continue;
    }
    for (const std::string& r : rules) {
      if (file_wide) {
        sup.whole_file.insert(r);
        continue;
      }
      for (int l = comment.line; l <= comment.end_line; ++l) sup.lines[r].insert(l);
      // A directive on its own line covers the line below it.
      if (comment.own_line) sup.lines[r].insert(comment.end_line + 1);
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Helpers shared by the rules.

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

const Tok* tok_at(const std::vector<Tok>& toks, std::size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

/// True when toks[i] (an identifier followed by '(') reads as a call of the
/// unqualified or std-qualified free function, rather than a member access,
/// a declaration (`ScopedClock clock(...)`) or a foreign qualification.
bool is_free_call_context(const std::vector<Tok>& toks, std::size_t i) {
  if (i == 0) return true;
  const Tok& prev = toks[i - 1];
  if (prev.is(".") || prev.is("->")) return false;
  if (prev.is_ident()) {
    // `Type name(...)` is a declaration of `name`, not a call — but a
    // keyword before the identifier still reads as a call.
    static const std::set<std::string> keywords = {"return", "co_return", "co_await", "co_yield",
                                                   "throw",  "else",      "do",       "case"};
    return keywords.count(prev.text) != 0;
  }
  if (prev.is("::")) {
    return i >= 2 && toks[i - 2].is("std");  // std::rand yes, sim::time no
  }
  return true;
}

/// Finds the index of the ')' matching an opening delimiter at `open`
/// (tracks (), [] and {} uniformly); returns toks.size() if unbalanced.
std::size_t matching_close(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") {
      --depth;
      if (depth == 0) return j;
    }
  }
  return toks.size();
}

/// String literals of each top-level argument of the call whose '(' is at
/// `open`.  An argument built by concatenation (`prefix + ".suffix"`) is
/// marked dynamic: its literals are fragments, not complete names, so the
/// static rule must leave it to the runtime check (obs_lint).
struct ArgLiterals {
  std::vector<std::string> literals;
  bool concatenated = false;
};

std::vector<ArgLiterals> call_arg_literals(const std::vector<Tok>& toks, std::size_t open,
                                           std::size_t close) {
  std::vector<ArgLiterals> args(1);
  int depth = 0;
  for (std::size_t j = open; j < close; ++j) {
    const std::string& t = toks[j].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
      continue;
    }
    if (t == ")" || t == "]" || t == "}") {
      --depth;
      continue;
    }
    if (depth == 1 && t == ",") {
      args.emplace_back();
      continue;
    }
    if (t == "+") args.back().concatenated = true;
    if (toks[j].is_string()) args.back().literals.push_back(toks[j].text);
  }
  return args;
}

// ---------------------------------------------------------------------------
// Rule: determinism.

const std::set<std::string>& banned_idents() {
  static const std::set<std::string> banned = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "random_device", "gettimeofday", "clock_gettime",
      "timespec_get",  "localtime",    "gmtime",
      "strftime",      "mktime"};
  return banned;
}

const std::set<std::string>& banned_calls() {
  static const std::set<std::string> banned = {"rand", "srand", "time", "clock"};
  return banned;
}

const std::set<std::string>& random_engines() {
  static const std::set<std::string> engines = {
      "mt19937",       "mt19937_64",    "default_random_engine",
      "minstd_rand",   "minstd_rand0",  "ranlux24",
      "ranlux48",      "ranlux24_base", "ranlux48_base",
      "knuth_b"};
  return engines;
}

void check_determinism(const std::string& rel_path, const std::vector<Tok>& toks,
                       bool layered_code, const Config& config, std::vector<Finding>& findings) {
  const auto add = [&](int line, const std::string& message) {
    findings.push_back({rel_path, line, "determinism", message});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& tok = toks[i];
    if (!tok.is_ident()) continue;

    if (banned_idents().count(tok.text) != 0) {
      add(tok.line, tok.text + " reads wall-clock or hardware entropy; simulated runs must be "
                               "bit-reproducible (use the sim clock / nws::Rng)");
      continue;
    }

    const Tok* next = tok_at(toks, i + 1);

    if (random_engines().count(tok.text) != 0 && next != nullptr) {
      // `engine name;` / `engine name{}` / `engine name()` / `engine()`
      // are default-seeded; an explicit seed argument is fine.
      std::size_t open = 0;
      if (next->is_ident() && i + 2 < toks.size()) {
        const Tok& after = toks[i + 2];
        if (after.is(";")) {
          add(tok.line, "unseeded std::" + tok.text + "; seed explicitly or use nws::Rng");
          continue;
        }
        if (after.is("(") || after.is("{")) open = i + 2;
      } else if (next->is("(") || next->is("{")) {
        open = i + 1;
      }
      if (open != 0) {
        const std::size_t close = matching_close(toks, open);
        if (close == open + 1) {
          add(tok.line, "unseeded std::" + tok.text + "; seed explicitly or use nws::Rng");
        }
      }
      continue;
    }

    if (next != nullptr && next->is("(") && banned_calls().count(tok.text) != 0 &&
        is_free_call_context(toks, i)) {
      add(tok.line, tok.text + "() is nondeterministic between runs; use the sim clock / nws::Rng");
      continue;
    }

    if (next != nullptr && next->is("(") && tok.text == "getenv" &&
        is_free_call_context(toks, i)) {
      const Tok* arg = tok_at(toks, i + 2);
      if (arg != nullptr && arg->is_string()) {
        bool allowed = false;
        for (const std::string& prefix : config.env_prefixes) {
          if (starts_with(arg->text, prefix)) allowed = true;
        }
        if (!allowed) {
          add(tok.line, "getenv(\"" + arg->text + "\") is outside the declared allowlist "
                        "(scripts/nwslint.conf envvar prefixes)");
        }
      } else {
        add(tok.line, "getenv with a non-literal name cannot be checked against the allowlist");
      }
      continue;
    }

    if (layered_code && next != nullptr && next->is("<") &&
        (tok.text == "unordered_map" || tok.text == "unordered_set" ||
         tok.text == "unordered_multimap" || tok.text == "unordered_multiset")) {
      // Pointer-keyed: hash order depends on addresses, so iteration order
      // can leak allocation order into simulated event ordering.
      int depth = 0;
      bool in_first_arg = true;
      bool pointer_key = false;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "<") ++depth;
        if (t == ">") {
          --depth;
          if (depth == 0) break;
        }
        if (depth == 1 && t == ",") in_first_arg = false;
        if (in_first_arg && t == "*") pointer_key = true;
      }
      if (pointer_key) {
        add(tok.line, "pointer-keyed " + tok.text + ": iteration order is address-dependent and "
                      "can leak into event ordering; key by a stable id instead");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: layering.

void check_layering(const std::string& rel_path, const std::string& layer,
                    const std::vector<Tok>& toks, const Config& config,
                    std::vector<Finding>& findings) {
  const bool in_src = starts_with(rel_path, "src/");
  if (in_src && config.layers.count(layer) == 0) {
    findings.push_back({rel_path, 1, "layering",
                        "src/" + layer + "/ is not a declared layer (scripts/nwslint.conf)"});
    return;
  }
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!toks[i].is("#") || !toks[i + 1].is("include") || !toks[i + 2].is_string()) continue;
    const std::string& path = toks[i + 2].text;
    const std::size_t slash = path.find('/');
    if (slash == std::string::npos) continue;  // local header, no layer component
    const std::string target = path.substr(0, slash);
    if (config.layers.count(target) == 0) continue;  // not a library layer path
    if (!in_src) continue;                           // bench/tests/examples/tools sit above the DAG
    if (target == layer) continue;
    const std::set<std::string>& allowed = config.layers.at(layer);
    if (allowed.count(target) == 0) {
      findings.push_back({rel_path, toks[i + 2].line, "layering",
                          "layer '" + layer + "' may not include \"" + path + "\" (allowed: " +
                              [&] {
                                std::string list;
                                for (const std::string& dep : allowed) {
                                  if (!list.empty()) list += ", ";
                                  list += dep;
                                }
                                return list.empty() ? std::string("none") : list;
                              }() +
                              ")"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: obs-schema.

void check_obs_schema(const std::string& rel_path, const std::vector<Tok>& toks,
                      const Config& config, std::vector<Finding>& findings) {
  const auto add = [&](int line, const std::string& message) {
    findings.push_back({rel_path, line, "obs-schema", message});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& tok = toks[i];
    if (!tok.is_ident()) continue;
    if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->")) && tok.text == "Span") continue;

    if (tok.text == "Span" || tok.text == "begin") {
      // `Span name(...)` / `Span(...)` declarator or call forms, plus the
      // low-level `tracer->begin("name", "cat", ...)` emission; in all of
      // them the span-name literal(s) are the first argument and the
      // category literal the second.  A `begin` with no string literals
      // (every iterator call) falls through the literal check below.
      std::size_t open = 0;
      const Tok* next = tok_at(toks, i + 1);
      if (next != nullptr && next->is("(")) {
        open = i + 1;
      } else if (tok.text == "Span" && next != nullptr && next->is_ident() && i + 2 < toks.size() &&
                 toks[i + 2].is("(")) {
        open = i + 2;
      } else {
        continue;
      }
      const std::size_t close = matching_close(toks, open);
      if (close >= toks.size()) continue;
      const auto args = call_arg_literals(toks, open, close);
      if (args.empty() || args[0].literals.empty() || args[0].concatenated) continue;
      for (const std::string& name : args[0].literals) {
        const std::string* category = config.schema.span_category(name);
        if (category == nullptr) {
          add(tok.line, "span name \"" + name + "\" is not registered in scripts/obs_schema.txt");
          continue;
        }
        if (args.size() > 1 && !args[1].literals.empty() &&
            std::find(args[1].literals.begin(), args[1].literals.end(), *category) ==
                args[1].literals.end()) {
          add(tok.line, "span \"" + name + "\" is registered with category '" + *category +
                            "', not '" + args[1].literals[0] + "'");
        }
      }
      if (args.size() > 1) {
        for (const std::string& cat : args[1].literals) {
          if (!config.schema.has_category(cat)) {
            add(tok.line, "span category '" + cat + "' is not registered in scripts/obs_schema.txt");
          }
        }
      }
      continue;
    }

    if (tok.text == "counter" || tok.text == "gauge" || tok.text == "histogram") {
      const Tok* next = tok_at(toks, i + 1);
      if (next == nullptr || !next->is("(")) continue;
      const std::size_t close = matching_close(toks, i + 1);
      if (close >= toks.size()) continue;
      const auto args = call_arg_literals(toks, i + 1, close);
      if (args.empty() || args[0].literals.empty() || args[0].concatenated) continue;
      for (const std::string& name : args[0].literals) {
        const std::string* kind = config.schema.metric_kind(name);
        if (kind == nullptr) {
          add(tok.line, "metric \"" + name + "\" is not registered in scripts/obs_schema.txt");
        } else if (*kind != tok.text) {
          add(tok.line, "metric \"" + name + "\" is registered as a " + *kind + ", used as a " +
                            tok.text);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: status-discard.

/// Walks an identifier chain `a::b.c->d` starting at `i`; returns the index
/// of the last identifier, or npos when toks[i] is not an identifier.
std::size_t chain_last_ident(const std::vector<Tok>& toks, std::size_t i) {
  if (i >= toks.size() || !toks[i].is_ident()) return toks.size();
  std::size_t last = i;
  std::size_t j = i + 1;
  while (j + 1 < toks.size() &&
         (toks[j].is("::") || toks[j].is(".") || toks[j].is("->")) && toks[j + 1].is_ident()) {
    last = j + 1;
    j += 2;
  }
  return last;
}

bool statement_boundary(const Tok& tok) {
  return tok.is(";") || tok.is("{") || tok.is("}") || tok.is(")") || tok.is(":") ||
         tok.is("else") || tok.is("do");
}

void check_status_discard(const std::string& rel_path, const std::vector<Tok>& toks,
                          const StatusFns& fns, std::vector<Finding>& findings) {
  const auto add = [&](int line, const std::string& message) {
    findings.push_back({rel_path, line, "status-discard", message});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (i > 0 && !statement_boundary(toks[i - 1])) continue;

    // `(void)call(...);` — an explicit discard that must instead be spelled
    // as a suppression with a reason.
    if (toks[i].is("(") && i + 3 < toks.size() && toks[i + 1].is("void") && toks[i + 2].is(")")) {
      const std::size_t last = chain_last_ident(toks, i + 3);
      if (last >= toks.size()) continue;
      const Tok* open = tok_at(toks, last + 1);
      if (open == nullptr || !open->is("(")) continue;
      const std::size_t close = matching_close(toks, last + 1);
      const Tok* after = tok_at(toks, close + 1);
      if (after != nullptr && after->is(";")) {
        if (fns.must_check(toks[last].text)) {
          add(toks[last].line, "(void)-cast discards the Status/Result of " + toks[last].text +
                                   "(); handle it or write NWSLINT(allow:status-discard): <reason>");
        }
        // The ')' of the cast is a statement boundary; skip the callee so the
        // bare-call branch does not report the same discard twice.
        i = last;
      }
      continue;
    }

    const std::size_t last = chain_last_ident(toks, i);
    if (last >= toks.size()) continue;
    const Tok* open = tok_at(toks, last + 1);
    if (open == nullptr || !open->is("(")) continue;
    const std::size_t close = matching_close(toks, last + 1);
    const Tok* after = tok_at(toks, close + 1);
    if (after == nullptr || !after->is(";")) continue;
    if (!fns.must_check(toks[last].text)) continue;
    add(toks[last].line, "discarded Status/Result returned by " + toks[last].text +
                             "(); check it, or suppress with a reason if discard is intended");
  }
}

// ---------------------------------------------------------------------------
// Rule: coroutine-ternary.

bool opens(const Tok& tok) { return tok.is("(") || tok.is("[") || tok.is("{"); }
bool closes(const Tok& tok) { return tok.is(")") || tok.is("]") || tok.is("}"); }

/// Index of the token ending a `?:` operand that starts at `begin`: the
/// first ':' at this depth that no nested `?` claims, a ';', the bracket
/// closing the enclosing expression, or, for the third operand
/// (`comma_ends`), a ','.  toks.size() if none.
std::size_t operand_end(const std::vector<Tok>& toks, std::size_t begin, bool comma_ends) {
  int depth = 0;
  int nested = 0;
  for (std::size_t j = begin; j < toks.size(); ++j) {
    const Tok& t = toks[j];
    if (opens(t)) {
      ++depth;
    } else if (closes(t)) {
      if (--depth < 0) return j;
    } else if (depth == 0) {
      if (t.is(";") || (comma_ends && t.is(","))) return j;
      if (t.is("?")) ++nested;
      if (t.is(":")) {
        if (nested == 0) return j;
        --nested;
      }
    }
  }
  return toks.size();
}

/// GCC 12 can tear a branch temporary of `?:` across a suspension point, so
/// `co_await` may not appear in the second or third operand, at any depth.
/// The first operand is evaluated unconditionally, and a `?:` inside an
/// awaited call's arguments (`co_await f(c ? a : b)`) has no await in it.
void check_coroutine_ternary(const std::string& rel_path, const std::vector<Tok>& toks,
                             std::vector<Finding>& findings) {
  std::set<std::size_t> flagged;  // nested conditionals see the same co_await
  const auto flag_awaits = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      if (!toks[j].is("co_await") || !flagged.insert(j).second) continue;
      findings.push_back({rel_path, toks[j].line, "coroutine-ternary",
                          "co_await in a branch of ?: (GCC 12 can corrupt the coroutine frame); "
                          "await into a named local, or branch with if/else"});
    }
  };
  for (std::size_t q = 0; q < toks.size(); ++q) {
    if (!toks[q].is("?")) continue;
    const std::size_t colon = operand_end(toks, q + 1, /*comma_ends=*/false);
    if (colon == toks.size() || !toks[colon].is(":")) continue;  // not a complete conditional
    flag_awaits(q + 1, colon);
    flag_awaits(colon + 1, operand_end(toks, colon + 1, /*comma_ends=*/true));
  }
}

std::string layer_of(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/")) return {};
  const std::size_t next = rel_path.find('/', 4);
  if (next == std::string::npos) return {};
  return rel_path.substr(4, next - 4);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::string Finding::to_string() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

Config parse_config(const std::string& conf_text, const std::string& schema_text) {
  Config config;
  config.schema = obs::SchemaRegistry::parse(schema_text);
  std::istringstream in(conf_text);
  std::string raw;
  int line_no = 0;
  const auto fail = [&](const std::string& what) -> void {
    throw std::runtime_error("nwslint.conf line " + std::to_string(line_no) + ": " + what);
  };
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream words(raw);
    std::string directive;
    if (!(words >> directive)) continue;
    if (directive == "layer") {
      std::string name;
      if (!(words >> name) || name.empty() || name.back() != ':') {
        fail("layer takes '<name>: <deps...>'");
      }
      name.pop_back();
      if (config.layers.count(name) != 0) fail("duplicate layer " + name);
      std::set<std::string>& deps = config.layers[name];
      std::string dep;
      while (words >> dep) deps.insert(dep);
    } else if (directive == "envvar") {
      std::string prefix;
      if (!(words >> prefix)) fail("envvar takes a prefix");
      config.env_prefixes.push_back(prefix);
    } else {
      fail("unknown directive " + directive);
    }
  }
  // Dependencies must be declared, and the graph must be acyclic: DFS with
  // a colour map, so a config that reintroduces a cycle fails loudly.
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  const std::function<void(const std::string&)> visit = [&](const std::string& layer) {
    colour[layer] = 1;
    for (const std::string& dep : config.layers.at(layer)) {
      if (config.layers.count(dep) == 0) {
        throw std::runtime_error("nwslint.conf: layer '" + layer + "' depends on undeclared '" +
                                 dep + "'");
      }
      if (colour[dep] == 1) {
        throw std::runtime_error("nwslint.conf: layer DAG has a cycle through '" + layer +
                                 "' and '" + dep + "'");
      }
      if (colour[dep] == 0) visit(dep);
    }
    colour[layer] = 2;
  };
  for (const auto& entry : config.layers) {
    if (colour[entry.first] == 0) visit(entry.first);
  }
  return config;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Config load_config(const std::string& conf_path, const std::string& schema_path) {
  return parse_config(read_file(conf_path), read_file(schema_path));
}

void collect_status_fns(const std::string& content, StatusFns& fns) {
  const Lexed lexed = lex(content);
  const std::vector<Tok>& toks = lexed.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident()) continue;
    if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"))) continue;
    if (toks[i].text == "void") {
      const Tok* name = tok_at(toks, i + 1);
      const Tok* open = tok_at(toks, i + 2);
      if (name != nullptr && name->is_ident() && open != nullptr && open->is("(")) {
        fns.void_names.insert(name->text);
      }
      continue;
    }
    if (toks[i].text == "Status") {
      const Tok* name = tok_at(toks, i + 1);
      const Tok* open = tok_at(toks, i + 2);
      if (name != nullptr && name->is_ident() && name->text != "operator" && open != nullptr &&
          open->is("(")) {
        fns.names.insert(name->text);
      }
      continue;
    }
    if (toks[i].text == "Result") {
      const Tok* angle = tok_at(toks, i + 1);
      if (angle == nullptr || !angle->is("<")) continue;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (toks[j].is("<")) ++depth;
        if (toks[j].is(">")) {
          --depth;
          if (depth == 0) break;
        }
      }
      const Tok* name = tok_at(toks, j + 1);
      const Tok* open = tok_at(toks, j + 2);
      if (name != nullptr && name->is_ident() && name->text != "operator" && open != nullptr &&
          open->is("(")) {
        fns.names.insert(name->text);
      }
    }
  }
}

std::vector<Finding> lint_file(const std::string& rel_path, const std::string& content,
                               const Config& config, const StatusFns& fns) {
  const Lexed lexed = lex(content);
  const Suppressions sup = collect_suppressions(rel_path, lexed.comments);
  const std::string layer = layer_of(rel_path);
  const bool layered_code = !layer.empty() && config.layers.count(layer) != 0;
  const bool in_tests = starts_with(rel_path, "tests/");

  std::vector<Finding> raw;
  check_determinism(rel_path, lexed.toks, layered_code, config, raw);
  check_layering(rel_path, layer, lexed.toks, config, raw);
  if (!in_tests) check_obs_schema(rel_path, lexed.toks, config, raw);
  check_status_discard(rel_path, lexed.toks, fns, raw);
  check_coroutine_ternary(rel_path, lexed.toks, raw);

  std::vector<Finding> findings = sup.errors;  // malformed suppressions are unsuppressible
  for (Finding& finding : raw) {
    if (!sup.covers(finding.rule, finding.line)) findings.push_back(std::move(finding));
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) < std::tie(b.file, b.line, b.rule, b.message);
  });
  return findings;
}

std::vector<Finding> lint_tree(const std::string& repo_root, const std::vector<std::string>& roots,
                               const Config& config) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path base = fs::path(repo_root) / root;
    if (fs::is_regular_file(base)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(base)) {
      throw std::runtime_error("lint root " + base.string() + " is not a file or directory");
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".hpp") continue;
      files.push_back(fs::relative(entry.path(), repo_root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());  // directory iteration order is unspecified

  StatusFns fns;
  std::map<std::string, std::string> contents;
  for (const std::string& file : files) {
    contents[file] = read_file((fs::path(repo_root) / file).string());
    collect_status_fns(contents[file], fns);
  }
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::vector<Finding> file_findings = lint_file(file, contents[file], config, fns);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  return findings;
}

}  // namespace nws::lint
