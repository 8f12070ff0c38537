#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

namespace szp::lint {

namespace fs = std::filesystem;

namespace {

// --- the checked-in layering DAG ----------------------------------------
//
// A module may include only the modules listed as its dependencies. util
// is the foundation (includes nothing above it); harness and tools/ sit
// at the top. Edges not listed here are build errors for szp_lint even if
// the compiler happily links them — keeping the DAG explicit is the
// point. Update this table (and docs/STATIC_ANALYSIS.md) when a new
// dependency is a deliberate design decision.
const std::map<std::string, std::set<std::string>>& allowed_deps() {
  static const std::map<std::string, std::set<std::string>> table = {
      {"util", {}},
      {"obs", {"util"}},
      {"data", {"util"}},
      {"metrics", {"util", "data"}},
      {"vis", {"util", "data"}},
      {"gpusim", {"util", "obs"}},
      {"perfmodel", {"util", "obs", "gpusim"}},
      // core -> robust is restricted to the dependency-free status leaf
      // (see edge_header_restrictions).
      {"core", {"util", "obs", "gpusim", "robust"}},
      {"robust", {"util", "obs", "core"}},
      {"baselines", {"util", "obs", "data", "core", "gpusim"}},
      {"engine", {"util", "obs", "core", "gpusim"}},
      {"pipeline", {"util", "obs", "core", "data", "engine", "gpusim"}},
      {"archive",
       {"util", "obs", "core", "data", "engine", "robust", "gpusim"}},
      {"harness",
       {"util", "obs", "data", "metrics", "vis", "gpusim", "perfmodel",
        "core", "robust", "baselines", "engine", "pipeline", "archive"}},
  };
  return table;
}

/// Per-edge header restriction: the edge is legal only through these
/// headers. core may see robust's error vocabulary (status.hpp is kept
/// free of other szp headers precisely so the core public API can expose
/// try_ entry points without a cycle) but not the decoder/fs machinery.
const std::map<std::pair<std::string, std::string>, std::set<std::string>>&
edge_header_restrictions() {
  static const std::map<std::pair<std::string, std::string>,
                        std::set<std::string>>
      table = {
          {{"core", "robust"}, {"szp/robust/status.hpp"}},
      };
  return table;
}

// --- raw-primitive whitelists -------------------------------------------

/// The annotated wrappers themselves (the only place the std primitives
/// may appear).
const std::vector<std::string>& raw_sync_whitelist() {
  static const std::vector<std::string> v = {
      "szp/util/thread_annotations.hpp",
  };
  return v;
}

/// Thread-owning runtime layers. Everything else goes through
/// engine::ThreadPool / pipeline workers / gpusim streams.
const std::vector<std::string>& raw_thread_whitelist() {
  static const std::vector<std::string> v = {
      "szp/engine/thread_pool.hpp", "szp/engine/thread_pool.cpp",
      "szp/gpusim/stream.hpp",      "szp/gpusim/stream.cpp",
      "szp/gpusim/launch.cpp",      "szp/pipeline/pipeline.hpp",
      "szp/pipeline/pipeline.cpp",
      // The telemetry server's accept/snapshot threads must not recurse
      // into the instrumented runtime they observe.
      "szp/obs/telemetry/server.cpp",
  };
  return v;
}

/// Only the log sinks may talk to the process's standard streams;
/// library code routes diagnostics through szp/obs/log.hpp so they
/// carry level/component/trace fields and stdout stays reserved for
/// data outputs. snprintf/vsnprintf (pure formatting) are not matched.
const std::vector<std::string>& raw_log_whitelist() {
  static const std::vector<std::string> v = {
      "szp/obs/log.hpp",
      "szp/obs/log.cpp",
  };
  return v;
}

/// Public engine entry points that must open an observability span so
/// every API call shows up in traces (docs/OBSERVABILITY.md contract).
struct SpanEntry {
  const char* file_suffix;
  const char* qualified_fn;
};
constexpr SpanEntry kSpanTable[] = {
    {"szp/engine/engine.cpp", "Engine::compress"},
    {"szp/engine/engine.cpp", "Engine::compress_f64"},
    {"szp/engine/engine.cpp", "Engine::decompress"},
    {"szp/engine/engine.cpp", "Engine::decompress_f64"},
    {"szp/engine/engine.cpp", "Engine::compress_batch"},
};

/// Decode paths parse untrusted bytes: corruption must surface as a
/// thrown format_error (or robust::Status), never an assert that
/// vanishes in release builds.
const std::vector<std::string>& decode_path_files() {
  static const std::vector<std::string> v = {
      "szp/robust/",  // the whole no-throw/salvage decode layer
      "szp/core/format.cpp",
      "szp/core/serial.cpp",
      "szp/core/block_codec.cpp",  // length-byte scan + block decoder
      "szp/core/host_codec.cpp",   // host full and range decode
  };
  return v;
}

const std::vector<std::string>& banned_functions() {
  static const std::vector<std::string> v = {
      "gets",   "sprintf", "vsprintf", "strcpy", "strcat",
      "strtok", "tmpnam",  "atoi",     "atol",   "atof",
      "rand",   "srand",
  };
  return v;
}

// --- source model --------------------------------------------------------

struct Source {
  std::string stripped;               // comments/strings blanked, same size
  std::vector<std::string> comments;  // comment text per line (1-based)
};

/// Blank out comments, string and char literals (preserving newlines so
/// offsets map to lines) and record comment text per line for the
/// suppression scanner.
Source strip(const std::string& text) {
  Source src;
  src.stripped.assign(text.size(), ' ');
  const int total_lines =
      1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  src.comments.assign(static_cast<size_t>(total_lines) + 2, "");

  enum class St { kCode, kLine, kBlock, kStr, kChar, kRawStr };
  St st = St::kCode;
  int line = 1;
  std::string raw_delim;  // raw-string delimiter, e.g. )foo"
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      src.stripped[i] = '\n';
      ++line;
      if (st == St::kLine) st = St::kCode;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" raw strings.
          if (i > 0 && text[i - 1] == 'R' &&
              (i < 2 || (std::isalnum(static_cast<unsigned char>(
                             text[i - 2])) == 0 &&
                         text[i - 2] != '_'))) {
            size_t j = i + 1;
            while (j < text.size() && text[j] != '(') ++j;
            raw_delim = ")" + text.substr(i + 1, j - i - 1) + "\"";
            st = St::kRawStr;
          } else {
            st = St::kStr;
          }
          src.stripped[i] = '"';
        } else if (c == '\'') {
          // Heuristic: a quote after an identifier/digit is a C++14
          // digit separator (1'000), not a char literal.
          const char p = i > 0 ? text[i - 1] : '\0';
          if (std::isalnum(static_cast<unsigned char>(p)) == 0 && p != '_') {
            st = St::kChar;
          }
          src.stripped[i] = c;
        } else {
          src.stripped[i] = c;
        }
        break;
      case St::kLine:
      case St::kBlock:
        src.comments[static_cast<size_t>(line)] += c;
        if (st == St::kBlock && c == '*' && n == '/') {
          st = St::kCode;
          ++i;
        }
        break;
      case St::kStr:
        if (c == '\\') {
          ++i;
          if (i < text.size() && text[i] == '\n') ++line;
        } else if (c == '"') {
          st = St::kCode;
          src.stripped[i] = '"';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          src.stripped[i] = c;
        }
        break;
      case St::kRawStr:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          src.stripped[i] = '"';
          st = St::kCode;
        }
        break;
    }
  }
  return src;
}

int line_of(const std::string& text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 std::min(pos, text.size())),
                                         '\n'));
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// All positions where `token` appears as a whole word in `s`.
std::vector<size_t> find_word(const std::string& s, const std::string& token) {
  std::vector<size_t> out;
  size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string::npos) {
    const bool l_ok = pos == 0 || !ident_char(s[pos - 1]);
    const size_t end = pos + token.size();
    const bool r_ok = end >= s.size() || !ident_char(s[end]);
    // "std::thread" must not also match "std::thread::...": the caller
    // filters those when needed.
    if (l_ok && r_ok) out.push_back(pos);
    pos = end;
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_matches(const std::string& norm_path,
                  const std::vector<std::string>& suffixes) {
  return std::any_of(suffixes.begin(), suffixes.end(),
                     [&](const std::string& sfx) {
                       return sfx.back() == '/'
                                  ? norm_path.find(sfx) != std::string::npos
                                  : ends_with(norm_path, sfx);
                     });
}

std::string normalize(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

/// Module of a source file: the component after "src/szp/"; "tools" for
/// anything under a tools/ directory; "" when neither applies (fixture
/// roots pass paths shaped like the real tree, so this works for them
/// too).
std::string module_of(const std::string& norm_path) {
  const size_t at = norm_path.rfind("src/szp/");
  if (at != std::string::npos) {
    const size_t start = at + 8;
    const size_t slash = norm_path.find('/', start);
    if (slash != std::string::npos) {
      return norm_path.substr(start, slash - start);
    }
  }
  if (norm_path.find("tools/") != std::string::npos) return "tools";
  return "";
}

// --- suppression ---------------------------------------------------------

struct Suppressions {
  /// line -> rule -> has_reason
  std::map<int, std::map<std::string, bool>> by_line;

  /// Is `rule` allowed on `line` (same line or the one above)?
  /// Returns 1 = suppressed, 0 = not mentioned, -1 = allow() without a
  /// reason (not honored).
  [[nodiscard]] int query(int line, const std::string& rule) const {
    for (const int l : {line, line - 1}) {
      const auto it = by_line.find(l);
      if (it == by_line.end()) continue;
      const auto rit = it->second.find(rule);
      if (rit != it->second.end()) return rit->second ? 1 : -1;
    }
    return 0;
  }
};

Suppressions parse_suppressions(const Source& src) {
  Suppressions sup;
  const std::string tag = "szp-lint: allow(";
  for (size_t line = 1; line < src.comments.size(); ++line) {
    const std::string& c = src.comments[line];
    size_t pos = 0;
    while ((pos = c.find(tag, pos)) != std::string::npos) {
      const size_t open = pos + tag.size();
      const size_t close = c.find(')', open);
      if (close == std::string::npos) break;
      const std::string rule = c.substr(open, close - open);
      std::string reason = c.substr(close + 1);
      const auto is_space = [](char ch) {
        return std::isspace(static_cast<unsigned char>(ch)) != 0;
      };
      reason.erase(reason.begin(),
                   std::find_if_not(reason.begin(), reason.end(), is_space));
      sup.by_line[static_cast<int>(line)][rule] = !reason.empty();
      pos = close;
    }
  }
  return sup;
}

// --- per-rule scanners ---------------------------------------------------

struct FileCtx {
  const std::string& path;       // as given
  const std::string norm;        // normalized path
  const std::string module;      // "" = not a module file
  const std::string& text;      // raw source
  const Source& src;             // stripped + comments
  const Suppressions& sup;
  Result& out;

  void emit(int line, const std::string& rule, std::string message) const {
    const int q = sup.query(line, rule);
    if (q == -1) {
      message += " [szp-lint: allow() found but lacks a reason — "
                 "suppression not honored]";
    }
    Finding f{path, line, rule, std::move(message)};
    if (q == 1) {
      out.suppressed.push_back(std::move(f));
    } else {
      out.findings.push_back(std::move(f));
    }
  }
};

void check_layering(const FileCtx& ctx) {
  if (ctx.module.empty() || ctx.module == "tools") return;
  const auto& table = allowed_deps();
  const auto it = table.find(ctx.module);
  // Unknown module: force a table update rather than silently passing.
  if (it == table.end()) {
    ctx.emit(1, "layering",
             "module '" + ctx.module +
                 "' is not in the layering table (tools/lint/lint.cpp) — "
                 "add it with its allowed dependencies");
    return;
  }
  // Scan includes in the RAW text: the include path is a string literal,
  // which the stripped view blanks out.
  const std::string tag = "#include \"szp/";
  size_t pos = 0;
  while ((pos = ctx.text.find(tag, pos)) != std::string::npos) {
    const size_t start = pos + 10;  // after `#include "`
    const size_t close = ctx.text.find('"', start);
    if (close == std::string::npos) break;
    const std::string header = ctx.text.substr(start, close - start);
    const size_t slash = header.find('/', 4);  // after "szp/"
    const std::string dep =
        slash != std::string::npos ? header.substr(4, slash - 4) : "";
    const int line = line_of(ctx.text, pos);
    if (!dep.empty() && dep != ctx.module) {
      if (it->second.count(dep) == 0) {
        ctx.emit(line, "layering",
                 "module '" + ctx.module + "' may not include '" + header +
                     "' (allowed deps: see layering table in "
                     "tools/lint/lint.cpp)");
      } else {
        const auto rit =
            edge_header_restrictions().find({ctx.module, dep});
        if (rit != edge_header_restrictions().end() &&
            rit->second.count(header) == 0) {
          ctx.emit(line, "layering",
                   "module '" + ctx.module + "' may include '" + dep +
                       "' only through: " +
                       [&] {
                         std::string s;
                         for (const auto& h : rit->second) {
                           if (!s.empty()) s += ", ";
                           s += h;
                         }
                         return s;
                       }());
        }
      }
    }
    pos = close;
  }
}

void check_raw_sync(const FileCtx& ctx) {
  if (path_matches(ctx.norm, raw_sync_whitelist())) return;
  static const std::vector<std::pair<std::string, std::string>> primitives = {
      {"std::mutex", "szp::Mutex"},
      {"std::recursive_mutex", "szp::Mutex (redesign: recursive locking "
                               "defeats the annotations)"},
      {"std::shared_mutex", "szp::Mutex"},
      {"std::lock_guard", "szp::LockGuard"},
      {"std::scoped_lock", "szp::LockGuard"},
      {"std::unique_lock", "szp::UniqueLock"},
      {"std::condition_variable", "szp::CondVar"},
      {"std::condition_variable_any", "szp::CondVar"},
  };
  for (const auto& [prim, repl] : primitives) {
    for (const size_t pos : find_word(ctx.src.stripped, prim)) {
      // std::condition_variable_any is matched by its own entry, not the
      // std::condition_variable prefix (find_word requires a word
      // boundary, and '_' is an identifier char — so no double report).
      ctx.emit(line_of(ctx.text, pos), "raw-sync",
               prim + " is invisible to thread-safety analysis; use " + repl +
                   " from szp/util/thread_annotations.hpp");
    }
  }
}

void check_raw_thread(const FileCtx& ctx) {
  if (path_matches(ctx.norm, raw_thread_whitelist())) return;
  for (const size_t pos : find_word(ctx.src.stripped, "std::thread")) {
    // std::thread::hardware_concurrency() is a query, not a spawn.
    if (ctx.src.stripped.compare(pos + 11, 2, "::") == 0) continue;
    ctx.emit(line_of(ctx.text, pos), "raw-thread",
             "std::thread outside the runtime whitelist — use "
             "engine::ThreadPool, pipeline workers, or gpusim streams "
             "(ad-hoc threads bypass profiling, tracing, and the "
             "sanitizer's happens-before model)");
  }
}

void check_raw_new_array(const FileCtx& ctx) {
  const std::string& s = ctx.src.stripped;
  for (const size_t pos : find_word(s, "new")) {
    // `new T[...]` possibly with (std::nothrow); scan forward past the
    // type tokens on the same statement for a '[' before any of `;({`.
    size_t j = pos + 3;
    int depth = 0;
    while (j < s.size()) {
      const char c = s[j];
      if (c == '(') ++depth;
      if (c == ')') {
        if (depth == 0) break;
        --depth;
      }
      if (depth == 0) {
        if (c == '[') {
          ctx.emit(line_of(ctx.text, pos), "raw-new-array",
                   "raw array new — use std::vector or "
                   "std::make_unique<T[]>() so the size travels with the "
                   "allocation");
          break;
        }
        if (c == ';' || c == '{' || c == ',' || c == ')') break;
      }
      ++j;
    }
  }
}

void check_missing_span(const FileCtx& ctx) {
  for (const SpanEntry& entry : kSpanTable) {
    if (!ends_with(ctx.norm, entry.file_suffix)) continue;
    const std::string& s = ctx.src.stripped;
    const std::string fn = entry.qualified_fn;
    bool found_def = false;
    for (const size_t pos : find_word(s, fn)) {
      size_t j = pos + fn.size();
      while (j < s.size() &&
             std::isspace(static_cast<unsigned char>(s[j])) != 0) {
        ++j;
      }
      if (j >= s.size() || s[j] != '(') continue;  // use, not definition
      // Skip the parameter list.
      int depth = 0;
      while (j < s.size()) {
        if (s[j] == '(') ++depth;
        if (s[j] == ')' && --depth == 0) break;
        ++j;
      }
      // Find '{' (a ';' first means it was only a declaration).
      while (j < s.size() && s[j] != '{' && s[j] != ';') ++j;
      if (j >= s.size() || s[j] == ';') continue;
      found_def = true;
      const size_t body_begin = j;
      depth = 0;
      while (j < s.size()) {
        if (s[j] == '{') ++depth;
        if (s[j] == '}' && --depth == 0) break;
        ++j;
      }
      const std::string_view body(s.data() + body_begin, j - body_begin);
      if (body.find("obs::Span") == std::string_view::npos &&
          body.find("obs::BeginEndSpan") == std::string_view::npos) {
        ctx.emit(line_of(ctx.text, pos), "missing-span",
                 "public entry point " + fn +
                     " must open an obs::Span (API observability "
                     "contract; see the span table in "
                     "tools/lint/lint.cpp)");
      }
    }
    if (!found_def) {
      ctx.emit(1, "missing-span",
               "span table lists " + fn + " but no definition was found in " +
                   ctx.path + " — update the table in tools/lint/lint.cpp");
    }
  }
}

void check_assert_decode(const FileCtx& ctx) {
  if (!path_matches(ctx.norm, decode_path_files())) return;
  for (const size_t pos : find_word(ctx.src.stripped, "assert")) {
    size_t j = pos + 6;
    const std::string& s = ctx.src.stripped;
    while (j < s.size() &&
           std::isspace(static_cast<unsigned char>(s[j])) != 0) {
      ++j;
    }
    if (j >= s.size() || s[j] != '(') continue;  // static_assert caught by
                                                 // word boundary already
    ctx.emit(line_of(ctx.text, pos), "assert-decode",
             "assert() on a decode path vanishes in release builds and "
             "aborts in debug — corrupted input must throw format_error "
             "(or return robust::Status)");
  }
}

void check_tsa_escape(const FileCtx& ctx) {
  if (path_matches(ctx.norm, raw_sync_whitelist())) return;  // the macro def
  for (const size_t pos :
       find_word(ctx.src.stripped, "SZP_NO_THREAD_SAFETY_ANALYSIS")) {
    const int line = line_of(ctx.text, pos);
    bool documented = false;
    for (const int l : {line - 1, line, line + 1}) {
      if (l >= 0 && static_cast<size_t>(l) < ctx.src.comments.size() &&
          ctx.src.comments[static_cast<size_t>(l)].find("tsa-escape:") !=
              std::string::npos) {
        documented = true;
      }
    }
    if (!documented) {
      ctx.emit(line, "tsa-escape",
               "SZP_NO_THREAD_SAFETY_ANALYSIS without a `// tsa-escape: "
               "<reason>` comment — every analysis escape must say why "
               "the contract cannot be expressed");
    }
  }
}

void check_raw_log(const FileCtx& ctx) {
  // Library modules only: tools and tests own their stdout/stderr.
  if (ctx.module.empty() || ctx.module == "tools") return;
  if (path_matches(ctx.norm, raw_log_whitelist())) return;
  const std::string& s = ctx.src.stripped;
  static const std::vector<std::string> streams = {"std::cout", "std::cerr",
                                                   "std::clog"};
  for (const std::string& tok : streams) {
    for (const size_t pos : find_word(s, tok)) {
      ctx.emit(line_of(ctx.text, pos), "raw-log",
               tok + " in library code — route diagnostics through "
                     "SZP_LOG_* (szp/obs/log.hpp) so they carry level/"
                     "component/trace fields and stay off stdout");
    }
  }
  // Word-boundary matching keeps snprintf/vsnprintf (formatting into a
  // caller buffer) out of scope.
  static const std::vector<std::string> fns = {"printf", "fprintf",
                                               "vprintf", "vfprintf",
                                               "puts",   "fputs"};
  for (const std::string& fn : fns) {
    for (const std::string probe : {fn, "std::" + fn}) {
      for (const size_t pos : find_word(s, probe)) {
        size_t j = pos + probe.size();
        while (j < s.size() &&
               std::isspace(static_cast<unsigned char>(s[j])) != 0) {
          ++j;
        }
        if (j >= s.size() || s[j] != '(') continue;
        if (probe == fn && pos >= 5 && s.compare(pos - 5, 5, "std::") == 0) {
          continue;  // the std:: probe reports it
        }
        ctx.emit(line_of(ctx.text, pos), "raw-log",
                 probe + "() in library code — use SZP_LOGF / SZP_LOG_* "
                         "(szp/obs/log.hpp); direct stream writes bypass "
                         "levels, rate limiting and the JSON sink");
      }
    }
  }
}

void check_banned_fn(const FileCtx& ctx) {
  for (const std::string& fn : banned_functions()) {
    for (const std::string probe : {fn, "std::" + fn}) {
      for (const size_t pos : find_word(ctx.src.stripped, probe)) {
        // Only calls: next non-space char must be '('.
        size_t j = pos + probe.size();
        const std::string& s = ctx.src.stripped;
        while (j < s.size() &&
               std::isspace(static_cast<unsigned char>(s[j])) != 0) {
          ++j;
        }
        if (j >= s.size() || s[j] != '(') continue;
        // `std::fn` also matches the bare-`fn` probe at offset +5; skip
        // the duplicate (the std:: probe reports it).
        if (probe == fn && pos >= 5 && s.compare(pos - 5, 5, "std::") == 0) {
          continue;
        }
        ctx.emit(line_of(ctx.text, pos), "banned-fn",
                 probe + "() is banned (silent failure or buffer overflow "
                         "semantics); use the std::strto*/std::format/"
                         "std::string alternatives");
      }
    }
  }
}

}  // namespace

void lint_file(const std::string& path, const std::string& text,
               Result& out) {
  const Source src = strip(text);
  const Suppressions sup = parse_suppressions(src);
  const std::string norm = normalize(path);
  const FileCtx ctx{path, norm, module_of(norm), text, src, sup, out};
  check_layering(ctx);
  check_raw_sync(ctx);
  check_raw_thread(ctx);
  check_raw_new_array(ctx);
  check_missing_span(ctx);
  check_assert_decode(ctx);
  check_tsa_escape(ctx);
  check_raw_log(ctx);
  check_banned_fn(ctx);
  ++out.files_scanned;
}

Result lint_paths(const std::vector<std::string>& roots) {
  Result r;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      r.errors.push_back("not a file or directory: " + root);
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        files.push_back(it->path().generic_string());
      }
    }
    if (ec) r.errors.push_back("walk failed: " + root + ": " + ec.message());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      r.errors.push_back("unreadable: " + f);
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    lint_file(f, ss.str(), r);
  }
  const auto by_pos = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  };
  std::sort(r.findings.begin(), r.findings.end(), by_pos);
  std::sort(r.suppressed.begin(), r.suppressed.end(), by_pos);
  return r;
}

void write_text(std::ostream& os, const Result& r) {
  for (const Finding& f : r.findings) {
    os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
       << '\n';
  }
  for (const std::string& e : r.errors) os << "error: " << e << '\n';
  os << r.files_scanned << " files scanned, " << r.findings.size()
     << " finding" << (r.findings.size() == 1 ? "" : "s") << " ("
     << r.suppressed.size() << " suppressed)\n";
}

namespace {
void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_findings(std::ostream& os, const std::vector<Finding>& v) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"file\": ";
    json_escape(os, v[i].file);
    os << ", \"line\": " << v[i].line << ", \"rule\": ";
    json_escape(os, v[i].rule);
    os << ", \"message\": ";
    json_escape(os, v[i].message);
    os << '}';
  }
  os << (v.empty() ? "]" : "\n  ]");
}
}  // namespace

void write_json(std::ostream& os, const Result& r) {
  std::map<std::string, int> counts;
  for (const Finding& f : r.findings) ++counts[f.rule];
  os << "{\n  \"version\": 1,\n  \"files_scanned\": " << r.files_scanned
     << ",\n  \"finding_count\": " << r.findings.size()
     << ",\n  \"suppressed_count\": " << r.suppressed.size()
     << ",\n  \"counts_by_rule\": {";
  bool first = true;
  for (const auto& [rule, n] : counts) {
    os << (first ? "\n    " : ",\n    ");
    json_escape(os, rule);
    os << ": " << n;
    first = false;
  }
  os << (counts.empty() ? "}" : "\n  }") << ",\n  \"findings\": ";
  json_findings(os, r.findings);
  os << ",\n  \"suppressed\": ";
  json_findings(os, r.suppressed);
  os << "\n}\n";
}

std::vector<std::pair<std::string, std::string>> rule_catalog() {
  return {
      {"layering", "module include edge not in the checked-in DAG"},
      {"raw-sync", "raw std sync primitive outside thread_annotations.hpp"},
      {"raw-thread", "std::thread outside the runtime whitelist"},
      {"raw-new-array", "raw array new"},
      {"missing-span", "public engine entry point without an obs span"},
      {"assert-decode", "assert() on a decode path"},
      {"tsa-escape", "undocumented SZP_NO_THREAD_SAFETY_ANALYSIS"},
      {"raw-log", "raw stdout/stderr write in library code"},
      {"banned-fn", "unsafe/legacy libc function call"},
  };
}

}  // namespace szp::lint
