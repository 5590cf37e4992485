// arvy_lint: project-specific static analysis for the Arvy tree.
//
// Generic tooling (clang-tidy, TSan) catches bugs after they exist; this
// tool rejects the *disciplines* the roadmap's scaling work relies on being
// broken in the first place. Seven rules, each with a stable id:
//
//   layering     src/ includes must follow the layer DAG committed in
//                docs/layers.toml (single source of truth; rendered in
//                docs/ARCHITECTURE.md). A file in src/<layer>/ may include
//                its own layer and any layer in the transitive closure of
//                its declared dependencies - nothing else.
//   lock         raw std::mutex / std::recursive_mutex / std::timed_mutex /
//                std::shared_mutex / std::condition_variable are banned
//                outside src/support/lock_rank.* and the [lock] allowlist:
//                everything else locks through support::RankedMutex (with
//                std::condition_variable_any for waiting), so the lock-rank
//                deadlock check covers every acquisition in the tree.
//   hotpath      a function annotated ARVY_HOT (support/hot.hpp) must not
//                allocate, lock, throw, or log: the constructs are matched
//                lexically over the annotated definition (parameters, init
//                list, body, nested lambdas included).
//   msgpod       every struct defined in a [msgpod] header must carry a
//                static_assert(std::is_trivially_copyable_v<...>) in the
//                same header - the machine-checked prerequisite for the
//                flat POD wire encoding (proto/wire.hpp, roadmap item 2).
//   deprecation  the Directory::engine() escape hatch was removed by the
//                DirectoryService refactor; lexically, any `engine()` call
//                or declaration is an error. The rule is unsuppressable:
//                it ignores ARVY-LINT-ALLOW, and any surviving
//                ALLOW(deprecation) grant is itself flagged as stale.
//   atomic       every std::atomic declared under src/ must carry a
//                `// ARVY-ATOMIC(role)` annotation; the [atomic] config
//                section fixes, per role, the legal memory_order set for
//                each operation kind (load/store/RMW, plus the standalone
//                fence orders). Every use site is checked; a call with no
//                explicit order is checked as the implicit seq_cst.
//   audit        (object mode, --audit-objects DIR) the binary-level
//                ARVY_HOT contract: walks the relocation call graph of the
//                optimized objects under DIR/src from every function the
//                compiler placed in a .text.hot.* section (support/hot.hpp
//                + -ffunction-sections) and rejects any path to an [audit]
//                banned symbol (allocators, pthread mutex/cond, throw
//                helpers, logging). A call into a function another object
//                under DIR/src defines is followed into that object, so a
//                path is checked across translation units. .text.unlikely.*
//                sections (ARVY_COLD escape hatches and compiler-split cold
//                halves) are the declared cold side and are not descended
//                into; [audit] assume_clean stops traversal at documented
//                boundaries and [audit] allow declares tolerated
//                caller->callee edges. This closes the hotpath rule's
//                lexical blind spots (typedef laundering, allocation
//                inlined through std:: internals) at the instruction level.
//                Known limits: calls through function pointers stored
//                elsewhere are invisible to relocations, and symbols
//                defined nowhere under DIR/src that are not banned are
//                trusted leaves (memcpy and friends).
//
// Suppression: `// ARVY-LINT-ALLOW(rule)` (optionally `(rule1,rule2)`, with
// a trailing `: justification`) is the single suppression mechanism. It
// silences the named rule(s) on its own line and the next line, so it works
// both trailing and as a lead-in comment. The deprecation rule is the one
// exception: its migration window is closed, so it accepts no grants. Whole-file grants exist only where
// the config declares them ([lock] allow_files; [msgpod] headers scope;
// [audit] assume_clean/allow for the object mode, where there are no
// source lines to annotate).
//
// The tool is deliberately lexical: a comment/string-aware tokenizer over
// the tree plus the CMake-exported compile_commands.json for coverage
// cross-checking (every src/ TU in the database must live in a declared
// layer). No libclang, so it runs on the bare toolchain in seconds and its
// verdicts are byte-stable for fixtures. The cost is the usual lexical
// blind spots (typedef laundering, macro indirection); the fixture corpus
// under tests/lint_fixtures/ pins exactly what is and is not caught, and
// the object audit re-checks the hot-path half with the compiler's own
// output as ground truth.
//
// Exit codes: 0 clean, 1 violations, 2 usage/config error. --stats-json
// emits a machine-readable report (CI artifact, like arvy_explore).
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__GNUG__) && __has_include(<cxxabi.h>)
#include <cxxabi.h>
#define ARVY_LINT_HAVE_DEMANGLE 1
#endif

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Diagnostics

struct Violation {
  std::string file;  // root-relative, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string hint;
};

struct Options {
  std::string root = ".";
  std::string layers_path;            // default: <root>/docs/layers.toml
  std::string compile_commands_path;  // optional cross-check
  std::string stats_json_path;
  std::string audit_objects_dir;  // non-empty enables the object audit
  std::set<std::string> only_rules;  // empty = all
  bool quiet = false;
};

const std::vector<std::string> kAllRules = {
    "layering", "lock", "hotpath", "msgpod", "deprecation", "atomic", "audit"};

// ---------------------------------------------------------------------------
// Config: docs/layers.toml (tiny TOML subset: [section], key = [ "a", "b" ])

struct Config {
  // Declared direct dependencies per layer, and the computed closure.
  std::map<std::string, std::vector<std::string>> layer_deps;
  std::map<std::string, std::set<std::string>> layer_closure;
  std::set<std::string> lock_allow_files;
  std::vector<std::string> msgpod_headers;
  // [atomic]: role -> operation kind ("load"/"store"/"rmw") -> legal orders.
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      atomic_roles;
  std::set<std::string> atomic_fence_orders;
  // [audit]: substring patterns over mangled AND demangled symbol names.
  std::vector<std::string> audit_banned;
  std::vector<std::string> audit_assume_clean;
  std::vector<std::pair<std::string, std::string>> audit_allow;  // caller->callee
  bool audit_declared = false;
};

void fail_config(const std::string& what) {
  std::cerr << "arvy_lint: config error: " << what << '\n';
  std::exit(2);
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

// Parses `[ "a", "b" ]` (or `[]`) into its string elements.
std::vector<std::string> parse_string_list(const std::string& value,
                                           const std::string& context) {
  const std::string v = trim(value);
  if (v.size() < 2 || v.front() != '[' || v.back() != ']') {
    fail_config(context + ": expected a [\"...\"] list, got '" + value + "'");
  }
  std::vector<std::string> out;
  std::size_t i = 1;
  const std::size_t end = v.size() - 1;
  while (i < end) {
    while (i < end && (std::isspace(static_cast<unsigned char>(v[i])) != 0 ||
                       v[i] == ',')) {
      ++i;
    }
    if (i >= end) break;
    if (v[i] != '"') fail_config(context + ": list elements must be quoted");
    const std::size_t close = v.find('"', i + 1);
    if (close == std::string::npos || close > end) {
      fail_config(context + ": unterminated string");
    }
    out.push_back(v.substr(i + 1, close - i - 1));
    i = close + 1;
  }
  return out;
}

Config load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail_config("cannot open layer config '" + path + "'");
  Config cfg;
  std::string section;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t.front() == '[' && t.back() == ']') {
      section = trim(t.substr(1, t.size() - 2));
      continue;
    }
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      fail_config(path + ":" + std::to_string(lineno) +
                  ": expected key = [..]");
    }
    const std::string key = trim(t.substr(0, eq));
    std::string value = trim(t.substr(eq + 1));
    const std::string context = path + ":" + std::to_string(lineno);
    // Multi-line lists: a value opening '[' without its ']' continues on the
    // following lines (comments stripped) until the bracket closes.
    while (!value.empty() && value.front() == '[' && value.back() != ']') {
      std::string cont;
      if (!std::getline(in, cont)) {
        fail_config(context + ": unterminated [...] list");
      }
      ++lineno;
      const std::size_t chash = cont.find('#');
      if (chash != std::string::npos) cont.erase(chash);
      value += ' ' + trim(cont);
    }
    if (section == "layers") {
      cfg.layer_deps[key] = parse_string_list(value, context);
    } else if (section == "lock" && key == "allow_files") {
      for (auto& f : parse_string_list(value, context)) {
        cfg.lock_allow_files.insert(f);
      }
    } else if (section == "msgpod" && key == "headers") {
      cfg.msgpod_headers = parse_string_list(value, context);
    } else if (section == "atomic" && key == "fence") {
      for (auto& o : parse_string_list(value, context)) {
        cfg.atomic_fence_orders.insert(o);
      }
    } else if (section == "atomic") {
      // Contract entries are `<role>.<op> = [orders]`.
      const std::size_t dot = key.rfind('.');
      if (dot == std::string::npos || dot == 0 || dot + 1 >= key.size()) {
        fail_config(context + ": [atomic] keys are '<role>.<op>' or 'fence'");
      }
      const std::string role = key.substr(0, dot);
      const std::string op = key.substr(dot + 1);
      if (op != "load" && op != "store" && op != "rmw") {
        fail_config(context + ": unknown atomic operation kind '" + op +
                    "' (expected load/store/rmw)");
      }
      for (auto& o : parse_string_list(value, context)) {
        cfg.atomic_roles[role][op].insert(o);
      }
    } else if (section == "audit" && key == "banned") {
      cfg.audit_banned = parse_string_list(value, context);
      cfg.audit_declared = true;
    } else if (section == "audit" && key == "assume_clean") {
      cfg.audit_assume_clean = parse_string_list(value, context);
      cfg.audit_declared = true;
    } else if (section == "audit" && key == "allow") {
      for (auto& edge : parse_string_list(value, context)) {
        const std::size_t arrow = edge.find("->");
        if (arrow == std::string::npos) {
          fail_config(context + ": [audit] allow entries are 'caller -> callee'");
        }
        cfg.audit_allow.emplace_back(trim(edge.substr(0, arrow)),
                                     trim(edge.substr(arrow + 2)));
      }
      cfg.audit_declared = true;
    } else {
      fail_config(context + ": unknown entry [" + section + "] " + key);
    }
  }
  if (cfg.layer_deps.empty()) fail_config(path + ": no [layers] declared");
  // Closure + acyclicity by DFS; a cycle is a config error (the whole point
  // of the DAG is that dependencies are strictly downward).
  for (const auto& [layer, deps] : cfg.layer_deps) {
    for (const auto& d : deps) {
      if (cfg.layer_deps.find(d) == cfg.layer_deps.end()) {
        fail_config("layer '" + layer + "' depends on undeclared '" + d + "'");
      }
    }
  }
  for (const auto& [layer, deps] : cfg.layer_deps) {
    std::set<std::string> seen;
    std::vector<std::string> stack(deps.begin(), deps.end());
    while (!stack.empty()) {
      const std::string d = stack.back();
      stack.pop_back();
      if (d == layer) fail_config("layer cycle through '" + layer + "'");
      if (!seen.insert(d).second) continue;
      const auto& next = cfg.layer_deps.at(d);
      stack.insert(stack.end(), next.begin(), next.end());
    }
    cfg.layer_closure[layer] = std::move(seen);
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Source model: comment/string stripping, ALLOW annotations, tokens

struct Token {
  std::string_view text;
  std::size_t line = 0;
  bool ident = false;  // identifier vs punctuation ("::" is one token)
};

struct SourceFile {
  std::string rel;   // root-relative path, forward slashes
  std::string raw;   // original bytes
  std::string code;  // comments and literals blanked, same length/lines
  std::vector<Token> tokens;
  // line -> rules allowed on that line (ALLOW covers its line and the next).
  std::map<std::size_t, std::set<std::string>> allows;
  // Each grant's declaration site, (line, rule), for rules that audit the
  // grants themselves rather than honor them.
  std::vector<std::pair<std::size_t, std::string>> allow_sites;
  std::size_t allows_declared = 0;
  // line -> role from an ARVY-ATOMIC(role) comment (same coverage: the
  // annotation's own line and the next, so it works trailing and lead-in).
  std::map<std::size_t, std::string> atomic_tags;
};

// Records ARVY-LINT-ALLOW(rule[,rule]) found in a comment that ends on
// `line`: the grant covers the comment's own line and the following line.
void record_allows(SourceFile& f, std::string_view comment, std::size_t line) {
  static constexpr std::string_view kTag = "ARVY-LINT-ALLOW(";
  std::size_t at = 0;
  while ((at = comment.find(kTag, at)) != std::string_view::npos) {
    const std::size_t open = at + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    std::stringstream rules(std::string(comment.substr(open, close - open)));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const std::string r = trim(rule);
      if (r.empty()) continue;
      f.allows[line].insert(r);
      f.allows[line + 1].insert(r);
      f.allow_sites.emplace_back(line, r);
      ++f.allows_declared;
    }
    at = close + 1;
  }
}

// Records `ARVY-ATOMIC(role)` found in a comment ending on `line`; like
// ALLOW, the binding covers the comment's own line and the following line.
// An annotation directly on a line wins over one inherited from the line
// above (comments are harvested top-down, so the exact-line write lands
// after the lead-in's spill-over emplace).
void record_atomic_tags(SourceFile& f, std::string_view comment,
                        std::size_t line) {
  static constexpr std::string_view kTag = "ARVY-ATOMIC(";
  std::size_t at = 0;
  while ((at = comment.find(kTag, at)) != std::string_view::npos) {
    const std::size_t open = at + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    const std::string role = trim(comment.substr(open, close - open));
    if (!role.empty()) {
      f.atomic_tags[line] = role;
      f.atomic_tags.emplace(line + 1, role);
    }
    at = close + 1;
  }
}

// Blanks comments, string literals, and char literals (newlines preserved so
// line numbers survive), harvesting ALLOW annotations from comment text.
void strip_and_annotate(SourceFile& f) {
  const std::string& s = f.raw;
  std::string out(s.size(), ' ');
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = s.size();
  auto copy_newline = [&](std::size_t at) {
    out[at] = '\n';
    ++line;
  };
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      copy_newline(i);
      ++i;
    } else if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      const std::size_t eol = s.find('\n', i);
      const std::size_t end = eol == std::string::npos ? n : eol;
      record_allows(f, std::string_view(s).substr(i, end - i), line);
      record_atomic_tags(f, std::string_view(s).substr(i, end - i), line);
      i = end;
    } else if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const std::size_t close = s.find("*/", i + 2);
      const std::size_t end = close == std::string::npos ? n : close + 2;
      std::size_t last_line = line;
      for (std::size_t j = i; j < end; ++j) {
        if (s[j] == '\n') {
          copy_newline(j);
          last_line = line;
        }
      }
      record_allows(f, std::string_view(s).substr(i, end - i), last_line);
      record_atomic_tags(f, std::string_view(s).substr(i, end - i), last_line);
      i = end;
    } else if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      const std::size_t open_paren = s.find('(', i + 2);
      if (open_paren == std::string::npos) {
        out[i] = c;
        ++i;
        continue;
      }
      const std::string delim = s.substr(i + 2, open_paren - i - 2);
      const std::string closer = ")" + delim + "\"";
      const std::size_t close = s.find(closer, open_paren + 1);
      const std::size_t end =
          close == std::string::npos ? n : close + closer.size();
      for (std::size_t j = i; j < end; ++j) {
        if (s[j] == '\n') copy_newline(j);
      }
      i = end;
    } else if (c == '"' || c == '\'') {
      // Skip the literal, honoring backslash escapes.
      std::size_t j = i + 1;
      while (j < n && s[j] != c) {
        if (s[j] == '\\' && j + 1 < n) ++j;
        if (s[j] == '\n') copy_newline(j);
        ++j;
      }
      i = j < n ? j + 1 : n;
    } else {
      out[i] = c;
      ++i;
    }
  }
  f.code = std::move(out);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void tokenize(SourceFile& f) {
  const std::string& s = f.code;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
    } else if (ident_char(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(s[i])) ++i;
      f.tokens.push_back(
          {std::string_view(s).substr(start, i - start), line, true});
    } else if (c == ':' && i + 1 < n && s[i + 1] == ':') {
      f.tokens.push_back({std::string_view(s).substr(i, 2), line, false});
      i += 2;
    } else {
      f.tokens.push_back({std::string_view(s).substr(i, 1), line, false});
      ++i;
    }
  }
}

bool allowed(const SourceFile& f, std::size_t line, const std::string& rule) {
  const auto it = f.allows.find(line);
  return it != f.allows.end() && it->second.count(rule) > 0;
}

// ---------------------------------------------------------------------------
// The linter

class Linter {
 public:
  Linter(Options options, Config config)
      : options_(std::move(options)), config_(std::move(config)) {}

  int run() {
    collect_files();
    for (auto& f : files_) {
      strip_and_annotate(f);
      tokenize(f);
    }
    if (enabled("layering")) check_layering();
    if (enabled("lock")) check_lock();
    if (enabled("hotpath")) check_hotpath();
    if (enabled("msgpod")) check_msgpod();
    if (enabled("deprecation")) check_deprecation();
    if (enabled("atomic")) check_atomic();
    if (enabled("layering")) check_compile_commands();
    if (enabled("audit") && !options_.audit_objects_dir.empty()) {
      check_audit();
    }
    return report();
  }

 private:
  [[nodiscard]] bool enabled(const std::string& rule) const {
    return options_.only_rules.empty() || options_.only_rules.count(rule) > 0;
  }

  void add(const SourceFile& f, std::size_t line, const std::string& rule,
           std::string message, std::string hint) {
    if (allowed(f, line, rule)) {
      ++allows_used_;
      return;
    }
    violations_.push_back(
        {f.rel, line, rule, std::move(message), std::move(hint)});
  }

  // --- file discovery ------------------------------------------------------

  void collect_files() {
    // The fixture corpus contains deliberate violations of every rule; it is
    // linted only via explicit --root invocations (tests/lint_fixtures/...).
    static constexpr std::string_view kSkipDir = "lint_fixtures";
    const fs::path root(options_.root);
    for (const char* top : {"src", "tools", "tests", "bench", "examples"}) {
      const fs::path dir = root / top;
      if (!fs::is_directory(dir)) continue;
      for (auto it = fs::recursive_directory_iterator(dir);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory() && it->path().filename() == kSkipDir) {
          it.disable_recursion_pending();
          continue;
        }
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".hpp" && ext != ".cpp") continue;
        SourceFile f;
        f.rel = fs::path(fs::relative(it->path(), root)).generic_string();
        std::ifstream in(it->path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        f.raw = buf.str();
        files_.push_back(std::move(f));
      }
    }
    std::sort(files_.begin(), files_.end(),
              [](const SourceFile& a, const SourceFile& b) {
                return a.rel < b.rel;
              });
  }

  // --- rule: layering ------------------------------------------------------

  // Layer of a root-relative path, empty when not under src/<layer>/.
  static std::string layer_of(const std::string& rel) {
    if (rel.rfind("src/", 0) != 0) return {};
    const std::size_t slash = rel.find('/', 4);
    if (slash == std::string::npos) return {};
    return rel.substr(4, slash - 4);
  }

  void check_layering() {
    for (const SourceFile& f : files_) {
      const std::string layer = layer_of(f.rel);
      if (layer.empty()) continue;
      if (config_.layer_deps.find(layer) == config_.layer_deps.end()) {
        add(f, 1, "layering",
            "directory src/" + layer + " is not declared in the layer DAG",
            "add '" + layer + " = [...]' to docs/layers.toml");
        continue;
      }
      // #include scanning happens on the *raw* text: the include path is a
      // string-literal-like token the stripper blanks out.
      std::istringstream lines(f.raw);
      std::string line;
      std::size_t lineno = 0;
      while (std::getline(lines, line)) {
        ++lineno;
        const std::string t = trim(line);
        if (t.rfind("#include", 0) != 0) continue;
        const std::size_t open = t.find('"');
        if (open == std::string::npos) continue;  // <system> include
        const std::size_t close = t.find('"', open + 1);
        if (close == std::string::npos) continue;
        const std::string inc = t.substr(open + 1, close - open - 1);
        const std::size_t slash = inc.find('/');
        if (slash == std::string::npos) {
          add(f, lineno, "layering",
              "non-canonical include \"" + inc + "\"",
              "include project headers as \"<layer>/<file>.hpp\"");
          continue;
        }
        const std::string target = inc.substr(0, slash);
        if (target == layer) continue;
        if (config_.layer_deps.find(target) == config_.layer_deps.end()) {
          add(f, lineno, "layering",
              "include of undeclared layer \"" + target + "\"",
              "declare the layer in docs/layers.toml or fix the path");
          continue;
        }
        const auto& closure = config_.layer_closure.at(layer);
        if (closure.count(target) == 0) {
          add(f, lineno, "layering",
              "layer '" + layer + "' must not include '" + target +
                  "' (not in its dependency closure)",
              "invert the dependency, or extend docs/layers.toml if the "
              "architecture really changed");
        }
      }
    }
  }

  // --- rule: lock ----------------------------------------------------------

  void check_lock() {
    static const std::set<std::string_view> kBanned = {
        "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
        "shared_mutex", "shared_timed_mutex", "condition_variable"};
    for (const SourceFile& f : files_) {
      if (config_.lock_allow_files.count(f.rel) > 0) continue;
      const auto& toks = f.tokens;
      for (std::size_t i = 2; i < toks.size(); ++i) {
        if (!toks[i].ident || toks[i - 1].text != "::" ||
            toks[i - 2].text != "std") {
          continue;
        }
        if (kBanned.count(toks[i].text) == 0) continue;
        add(f, toks[i].line, "lock",
            "raw std::" + std::string(toks[i].text) +
                " outside support/lock_rank",
            "use support::RankedMutex (std::condition_variable_any for "
            "waiting) so the lock-rank deadlock check covers this lock");
      }
    }
  }

  // --- rule: hotpath -------------------------------------------------------

  void check_hotpath() {
    for (const SourceFile& f : files_) {
      const auto& toks = f.tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident || toks[i].text != "ARVY_HOT") continue;
        // Skip the macro's own definition (#define ARVY_HOT ...).
        if (i >= 2 && toks[i - 1].text == "define" &&
            toks[i - 2].text == "#") {
          continue;
        }
        i = scan_hot_function(f, i);
      }
    }
  }

  // Scans one ARVY_HOT-annotated declaration starting at token `at`;
  // returns the index of the last consumed token.
  std::size_t scan_hot_function(const SourceFile& f, std::size_t at) {
    const auto& toks = f.tokens;
    // Function name: the last identifier before the parameter list's '('.
    std::string name = "?";
    long paren = 0;
    long brace = 0;
    bool in_body = false;
    std::size_t i = at + 1;
    for (; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (!in_body && t.text == ";" && paren == 0 && brace == 0) {
        return i;  // declaration only: nothing to scan
      }
      if (t.ident && !in_body && paren == 0 && i + 1 < toks.size() &&
          toks[i + 1].text == "(" && name == "?") {
        name = std::string(t.text);
      }
      if (t.text == "(") ++paren;
      if (t.text == ")") --paren;
      if (t.text == "{" && paren == 0) {
        in_body = true;
        ++brace;
        continue;
      }
      if (t.text == "}" && paren == 0) {
        --brace;
        if (in_body && brace == 0) {
          // An init-list braced member closes back to zero; the real body
          // is the last braced group (next token continues the init list).
          if (i + 1 < toks.size() &&
              (toks[i + 1].text == "," || toks[i + 1].text == "{")) {
            continue;
          }
          return i;
        }
        continue;
      }
      if (t.ident) {
        const std::string_view category = banned_category(t.text);
        if (!category.empty()) {
          add(f, t.line, "hotpath",
              "ARVY_HOT function '" + name + "' contains " +
                  std::string(category) + " construct '" +
                  std::string(t.text) + "'",
              "hot paths must be allocation-, lock-, throw- and log-free; "
              "move the construct out of the hot function or drop ARVY_HOT");
        }
      }
    }
    return toks.size() - 1;
  }

  static std::string_view banned_category(std::string_view token) {
    static const std::map<std::string_view, std::string_view> kMap = {
        {"new", "allocation"},         {"delete", "allocation"},
        {"malloc", "allocation"},      {"calloc", "allocation"},
        {"realloc", "allocation"},     {"aligned_alloc", "allocation"},
        {"make_unique", "allocation"}, {"make_shared", "allocation"},
        {"push_back", "allocation"},   {"emplace_back", "allocation"},
        {"push_front", "allocation"},  {"emplace_front", "allocation"},
        {"emplace", "allocation"},     {"insert", "allocation"},
        {"resize", "allocation"},      {"reserve", "allocation"},
        {"append", "allocation"},      {"mutex", "locking"},
        {"RankedMutex", "locking"},    {"lock_guard", "locking"},
        {"unique_lock", "locking"},    {"scoped_lock", "locking"},
        {"shared_lock", "locking"},    {"condition_variable", "locking"},
        {"condition_variable_any", "locking"},
        {"throw", "throwing"},         {"printf", "logging"},
        {"fprintf", "logging"},        {"vfprintf", "logging"},
        {"puts", "logging"},           {"cout", "logging"},
        {"cerr", "logging"},           {"clog", "logging"},
        {"log_line", "logging"},       {"ARVY_LOG_INFO", "logging"},
        {"ARVY_LOG_DEBUG", "logging"}, {"ARVY_LOG_TRACE", "logging"}};
    const auto it = kMap.find(token);
    return it == kMap.end() ? std::string_view{} : it->second;
  }

  // --- rule: msgpod --------------------------------------------------------

  void check_msgpod() {
    for (const std::string& header : config_.msgpod_headers) {
      const SourceFile* f = find_file(header);
      if (f == nullptr) {
        Violation v;
        v.file = header;
        v.line = 1;
        v.rule = "msgpod";
        v.message = "[msgpod] header declared in layers.toml not found";
        v.hint = "fix the path in docs/layers.toml";
        violations_.push_back(std::move(v));
        continue;
      }
      const auto& toks = f->tokens;
      // Collect the argument text of every static_assert in the header.
      std::vector<std::string> asserts;
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].ident || toks[i].text != "static_assert") continue;
        std::string arg = " ";  // leading space so every token is delimited
        long depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")" && --depth == 0) break;
          arg.append(toks[j].text);
          arg.push_back(' ');
        }
        asserts.push_back(std::move(arg));
      }
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].ident ||
            (toks[i].text != "struct" && toks[i].text != "class")) {
          continue;
        }
        // `enum class Kind : base` is an enum, not a message struct (scoped
        // enums are trivially copyable by construction anyway).
        if (i > 0 && toks[i - 1].text == "enum") continue;
        if (!toks[i + 1].ident) continue;
        const std::string name(toks[i + 1].text);
        // Definitions only: the name is followed by '{', 'final', or bases.
        const std::string_view after = toks[i + 2].text;
        if (after != "{" && after != ":" && after != "final") continue;
        // Whole-token match: the assert text is " tok tok ... " delimited.
        const bool covered = std::any_of(
            asserts.begin(), asserts.end(), [&](const std::string& a) {
              return a.find(" is_trivially_copyable") != std::string::npos &&
                     a.find(" " + name + " ") != std::string::npos;
            });
        if (!covered) {
          add(*f, toks[i].line, "msgpod",
              "message struct '" + name +
                  "' has no is_trivially_copyable static_assert",
              "add static_assert(std::is_trivially_copyable_v<" + name +
                  ">); messages must stay POD for the flat wire encoding");
        }
      }
    }
  }

  // --- rule: deprecation ---------------------------------------------------

  // Deliberately not routed through add(): the escape hatch is gone, the
  // migration window is closed, and the rule no longer honors
  // ARVY-LINT-ALLOW. Any grant still naming the rule is dead weight that
  // would mask a regression, so it is flagged as its own finding.
  void check_deprecation() {
    for (const SourceFile& f : files_) {
      const auto& toks = f.tokens;
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].ident || toks[i].text != "engine") continue;
        if (toks[i + 1].text != "(" || toks[i + 2].text != ")") continue;
        violations_.push_back(
            {f.rel, toks[i].line, "deprecation",
             "use of the removed engine() escape hatch",
             "use inspect() for read-only access, or the typed "
             "drivers/observers for mutation (see proto/directory.hpp)"});
      }
      for (const auto& [line, rule] : f.allow_sites) {
        if (rule != "deprecation") continue;
        violations_.push_back(
            {f.rel, line, "deprecation",
             "stale ARVY-LINT-ALLOW(deprecation) grant",
             "the engine() escape hatch no longer exists and the rule "
             "accepts no suppressions; delete the ALLOW comment"});
      }
    }
  }

  // --- rule: atomic --------------------------------------------------------

  // Operation kind of an atomic member call, empty when not order-relevant.
  static std::string_view atomic_op_kind(std::string_view member) {
    static const std::map<std::string_view, std::string_view> kMap = {
        {"load", "load"},
        {"store", "store"},
        {"exchange", "rmw"},
        {"fetch_add", "rmw"},
        {"fetch_sub", "rmw"},
        {"fetch_and", "rmw"},
        {"fetch_or", "rmw"},
        {"fetch_xor", "rmw"},
        {"compare_exchange_weak", "rmw"},
        {"compare_exchange_strong", "rmw"}};
    const auto it = kMap.find(member);
    return it == kMap.end() ? std::string_view{} : it->second;
  }

  // Collects the memory_order_* arguments of the balanced parens starting
  // at token `open` ('('); returns the stripped order names ("relaxed",
  // "seq_cst", ...) and sets `end` past the closing ')'.
  static std::vector<std::string> collect_orders(const SourceFile& f,
                                                 std::size_t open,
                                                 std::size_t& end) {
    static constexpr std::string_view kPrefix = "memory_order_";
    std::vector<std::string> orders;
    long depth = 0;
    std::size_t i = open;
    for (; i < f.tokens.size(); ++i) {
      if (f.tokens[i].text == "(") ++depth;
      if (f.tokens[i].text == ")" && --depth == 0) break;
      if (f.tokens[i].ident && f.tokens[i].text.rfind(kPrefix, 0) == 0) {
        orders.emplace_back(f.tokens[i].text.substr(kPrefix.size()));
      }
    }
    end = i;
    return orders;
  }

  void check_atomic() {
    // Pass 1: every `std::atomic<...>` declaration under src/ needs an
    // ARVY-ATOMIC(role) with a role the [atomic] config defines. Bindings
    // are global across the tree (a member declared in a header is used in
    // its .cpp), keyed by the declared name - lexical, like everything
    // else here, so distinct atomics sharing a name must share a role.
    std::map<std::string, std::string> roles;      // name -> role
    std::map<std::string, std::string> role_site;  // name -> "file:line"
    for (const SourceFile& f : files_) {
      if (f.rel.rfind("src/", 0) != 0) continue;
      const auto& toks = f.tokens;
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].ident || toks[i].text != "std" ||
            toks[i + 1].text != "::" || toks[i + 2].text != "atomic") {
          continue;
        }
        std::size_t j = i + 3;
        if (j < toks.size() && toks[j].text == "<") {
          long depth = 0;
          for (; j < toks.size(); ++j) {
            if (toks[j].text == "<") ++depth;
            if (toks[j].text == ">" && --depth == 0) break;
          }
          ++j;  // past the closing '>'
        }
        // Declarator adornments between the type and the name; stopping at
        // anything else (e.g. '(') rejects non-declaration mentions like
        // make_unique<std::atomic<T>[]>(n).
        while (j < toks.size() &&
               (toks[j].text == "[" || toks[j].text == "]" ||
                toks[j].text == ">" || toks[j].text == "*" ||
                toks[j].text == "&")) {
          ++j;
        }
        if (j >= toks.size() || !toks[j].ident) continue;
        const std::string name(toks[j].text);
        const std::size_t line = toks[j].line;
        const auto tag = f.atomic_tags.find(line);
        if (tag == f.atomic_tags.end()) {
          add(f, line, "atomic",
              "std::atomic '" + name + "' has no ARVY-ATOMIC(role) annotation",
              "declare the word's protocol role (see [atomic] in the lint "
              "config); the role fixes which memory orders its operations "
              "may use");
          continue;
        }
        const std::string& role = tag->second;
        if (config_.atomic_roles.find(role) == config_.atomic_roles.end()) {
          add(f, line, "atomic",
              "ARVY-ATOMIC role '" + role + "' on '" + name +
                  "' is not declared in the [atomic] config section",
              "add '" + role + ".<op> = [...]' entries or use a declared role");
          continue;
        }
        const auto prev = roles.find(name);
        if (prev != roles.end() && prev->second != role) {
          add(f, line, "atomic",
              "atomic '" + name + "' re-annotated as '" + role +
                  "' but already bound to '" + prev->second + "' at " +
                  role_site[name],
              "bindings are lexical by name: rename one of the atomics or "
              "align the roles");
          continue;
        }
        roles[name] = role;
        role_site[name] = f.rel + ":" + std::to_string(line);
      }
    }

    // Pass 2: use sites. `name.op(...)`, `name[...].op(...)` and, for an
    // accessor that returns the word, `name(...).op(...)` check the call's
    // memory_order arguments (implicit = seq_cst) against the role
    // contract; standalone atomic_thread_fence checks the fence list.
    for (const SourceFile& f : files_) {
      if (f.rel.rfind("src/", 0) != 0) continue;
      const auto& toks = f.tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident) continue;
        if (toks[i].text == "atomic_thread_fence" ||
            toks[i].text == "atomic_signal_fence") {
          if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
          std::size_t end = i + 1;
          for (const std::string& o : collect_orders(f, i + 1, end)) {
            if (config_.atomic_fence_orders.count(o) == 0) {
              add(f, toks[i].line, "atomic",
                  "fence order '" + o + "' is outside the [atomic] fence "
                  "contract",
                  "the declared fences are the eventcount's Dekker pair; a "
                  "new fence protocol needs a config entry and a written "
                  "pairing argument");
            }
          }
          i = end;
          continue;
        }
        const auto bound = roles.find(std::string(toks[i].text));
        if (bound == roles.end()) continue;
        const std::string& name = bound->first;
        const std::string& role = bound->second;
        std::size_t j = i + 1;
        if (j < toks.size() && (toks[j].text == "[" || toks[j].text == "(")) {
          const std::string_view open = toks[j].text;
          const std::string_view close = open == "[" ? "]" : ")";
          long depth = 0;
          for (; j < toks.size(); ++j) {
            if (toks[j].text == open) ++depth;
            if (toks[j].text == close && --depth == 0) break;
          }
          ++j;
        }
        if (j + 1 >= toks.size() || toks[j].text != ".") continue;
        const std::string_view kind = atomic_op_kind(toks[j + 1].text);
        if (kind.empty()) continue;
        if (j + 2 >= toks.size() || toks[j + 2].text != "(") continue;
        std::size_t end = j + 2;
        std::vector<std::string> orders = collect_orders(f, j + 2, end);
        const bool implicit = orders.empty();
        if (implicit) orders.emplace_back("seq_cst");
        const auto& contract = config_.atomic_roles.at(role);
        const auto ops = contract.find(std::string(kind));
        const std::size_t line = toks[j + 1].line;
        if (ops == contract.end()) {
          add(f, line, "atomic",
              "role '" + role + "' ('" + name + "') has no " +
                  std::string(kind) + " contract, but '" +
                  std::string(toks[j + 1].text) + "' is one",
              "either the operation is wrong for this word's protocol or "
              "the [atomic] contract is missing an entry");
          i = end;
          continue;
        }
        for (const std::string& o : orders) {
          if (ops->second.count(o) == 0) {
            add(f, line, "atomic",
                std::string(implicit ? "implicit " : "") + "memory order '" +
                    o + "' on '" + name + "." +
                    std::string(toks[j + 1].text) + "' is outside role '" +
                    role + "' (" + std::string(kind) + ")",
                implicit
                    ? "spell the order out: the role contract rejects "
                      "defaulted seq_cst so strength is always a decision"
                    : "use an order the role declares, or re-justify the "
                      "role's contract in the config");
          }
        }
        i = end;
      }
    }
  }

  // --- compile_commands coverage cross-check -------------------------------

  void check_compile_commands() {
    if (options_.compile_commands_path.empty()) return;
    std::ifstream in(options_.compile_commands_path);
    if (!in) {
      fail_config("cannot open compile database '" +
                  options_.compile_commands_path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string db = buf.str();
    const fs::path root = fs::absolute(options_.root).lexically_normal();
    static constexpr std::string_view kKey = "\"file\"";
    std::size_t at = 0;
    while ((at = db.find(kKey, at)) != std::string::npos) {
      at += kKey.size();
      const std::size_t open = db.find('"', at);
      if (open == std::string::npos) break;
      const std::size_t close = db.find('"', open + 1);
      if (close == std::string::npos) break;
      const std::string file = db.substr(open + 1, close - open - 1);
      at = close + 1;
      const fs::path p = fs::path(file).lexically_normal();
      const std::string rel =
          fs::path(p.lexically_relative(root)).generic_string();
      if (rel.rfind("src/", 0) != 0) continue;
      const std::string layer = layer_of(rel);
      if (layer.empty()) continue;
      if (config_.layer_deps.find(layer) == config_.layer_deps.end()) {
        Violation v;
        v.file = rel;
        v.line = 1;
        v.rule = "layering";
        v.message = "TU in compile_commands.json is outside the layer DAG";
        v.hint = "declare src/" + layer + " in docs/layers.toml";
        violations_.push_back(std::move(v));
      }
    }
  }

  // --- rule: audit (binary-level ARVY_HOT allocation/lock/throw audit) -----

  static std::string demangle(const std::string& mangled) {
#if ARVY_LINT_HAVE_DEMANGLE
    int status = 0;
    char* out = abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
    if (status == 0 && out != nullptr) {
      std::string result(out);
      std::free(out);
      return result;
    }
#endif
    return mangled;
  }

  // Single-quote shell quoting; safe for arbitrary paths.
  static std::string shell_quote(const std::string& s) {
    std::string out = "'";
    for (const char c : s) {
      if (c == '\'') {
        out += "'\\''";
      } else {
        out.push_back(c);
      }
    }
    out += "'";
    return out;
  }

  // Runs a command, captures stdout. Returns false on popen/exit failure.
  static bool run_capture(const std::string& cmd, std::string& out) {
    out.clear();
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) return false;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
      out.append(buf, n);
    }
    return ::pclose(pipe) == 0;
  }

  static std::vector<std::string> split_ws(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok) out.push_back(std::move(tok));
    return out;
  }

  static bool is_hex(const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s) {
      if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return false;
    }
    return true;
  }

  // True when `pattern` occurs in the mangled or demangled symbol name.
  static bool name_matches(const std::string& mangled,
                           const std::string& demangled,
                           const std::string& pattern) {
    return mangled.find(pattern) != std::string::npos ||
           demangled.find(pattern) != std::string::npos;
  }

  bool matches_any(const std::string& mangled, const std::string& demangled,
                   const std::vector<std::string>& patterns) const {
    for (const auto& p : patterns) {
      if (name_matches(mangled, demangled, p)) return true;
    }
    return false;
  }

  void check_audit() {
    if (!config_.audit_declared) {
      fail_config("--audit-objects needs an [audit] section in the config "
                  "(banned symbol patterns) - refusing to audit nothing");
    }
    std::string probe;
    if (!run_capture("objdump --version >/dev/null 2>&1 && echo ok", probe) ||
        probe.find("ok") == std::string::npos) {
      std::cerr << "arvy_lint: objdump not found; --audit-objects needs "
                   "binutils\n";
      std::exit(2);
    }

    // Audit only the library objects under <dir>/src: test and tool TUs
    // instantiate hot templates with their own user code (lambdas passed to
    // try_push etc.) that is not shipped on the runtime hot path.
    const fs::path src_dir = fs::path(options_.audit_objects_dir) / "src";
    if (!fs::is_directory(src_dir)) {
      std::cerr << "arvy_lint: '" << src_dir.string()
                << "' is not a directory; point --audit-objects at a CMake "
                   "build tree that has compiled src/\n";
      std::exit(2);
    }
    std::vector<fs::path> objects;
    for (const auto& entry : fs::recursive_directory_iterator(src_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".o") {
        objects.push_back(entry.path());
      }
    }
    std::sort(objects.begin(), objects.end());
    if (objects.empty()) {
      std::cerr << "arvy_lint: no .o files under '" << src_dir.string()
                << "'; build the tree before auditing\n";
      std::exit(2);
    }

    std::vector<AuditObject> parsed;
    parsed.reserve(objects.size());
    for (const fs::path& obj : objects) {
      ++audit_objects_scanned_;
      parsed.push_back(parse_object(obj));
    }
    std::size_t hot_total = 0;
    for (const AuditObject& o : parsed) hot_total += o.hot_sections.size();
    audit_hot_functions_ = hot_total;
    if (hot_total == 0) {
      std::cerr << "arvy_lint: no .text.hot.* sections in any object under '"
                << src_dir.string()
                << "'. ARVY_HOT only lands functions in hot sections in an "
                   "optimized build (-O2, -ffunction-sections); audit a "
                   "Release/RelWithDebInfo tree\n";
      std::exit(2);
    }
    walk_hot_graph(parsed);
  }

  // One object file's share of the call graph.
  struct AuditObject {
    std::string rel;  // path relative to the audited build tree
    std::map<std::string, std::string> symbol_section;  // sym -> section
    std::map<std::string, std::string> section_func;    // section -> function
    std::vector<std::string> global_symbols;  // non-local definitions
    std::vector<std::string> hot_sections;
    std::map<std::string, std::vector<std::string>> section_targets;
  };

  // Reads one object's symbol table and relocations.
  AuditObject parse_object(const fs::path& obj) const {
    const std::string quoted = shell_quote(obj.string());
    std::string symtab;
    std::string relocs;
    if (!run_capture("objdump -t " + quoted + " 2>/dev/null", symtab) ||
        !run_capture("objdump -r " + quoted + " 2>/dev/null", relocs)) {
      std::cerr << "arvy_lint: objdump failed on '" << obj.string() << "'\n";
      std::exit(2);
    }
    AuditObject out;
    out.rel =
        fs::path(obj.lexically_relative(fs::path(options_.audit_objects_dir)))
            .generic_string();

    // Symbol table: which section is each defined symbol in, and what is the
    // (function) symbol that names each section.
    {
      std::istringstream in(symtab);
      std::string line;
      while (std::getline(in, line)) {
        const std::vector<std::string> toks = split_ws(line);
        // "0000... <flags> <section> <size/align> <name>"; flag columns vary,
        // so the section is the first token after the value that starts with
        // '.' or '*'.
        if (toks.size() < 4 || !is_hex(toks[0])) continue;
        std::size_t sec = 0;
        for (std::size_t k = 1; k + 1 < toks.size(); ++k) {
          if (toks[k][0] == '.' || toks[k][0] == '*') {
            sec = k;
            break;
          }
        }
        if (sec == 0 || sec + 2 >= toks.size()) continue;
        const std::string& section = toks[sec];
        const std::string& name = toks[sec + 2];
        if (section == "*ABS*" || section == "*UND*") continue;
        if (name == section) {
          // Section symbol row: this is where .text.hot.* roots surface even
          // when the function symbol itself is local.
          if (section.rfind(".text.hot.", 0) == 0) {
            out.hot_sections.push_back(section);
          }
          continue;
        }
        out.symbol_section[name] = section;
        // The first flag column is 'l' for a local symbol; only global and
        // weak definitions can satisfy another object's reference.
        if (sec > 1 && toks[1][0] != 'l') out.global_symbols.push_back(name);
        // Function symbols carry an 'F' flag column before the section.
        bool is_func = false;
        for (std::size_t k = 1; k < sec; ++k) {
          if (toks[k] == "F") is_func = true;
        }
        if (is_func) out.section_func.emplace(section, name);
      }
    }
    std::sort(out.hot_sections.begin(), out.hot_sections.end());
    out.hot_sections.erase(
        std::unique(out.hot_sections.begin(), out.hot_sections.end()),
        out.hot_sections.end());

    // Relocations: the outgoing call/reference edges of every section.
    {
      std::istringstream in(relocs);
      std::string line;
      std::string current;
      static constexpr std::string_view kHeader = "RELOCATION RECORDS FOR [";
      while (std::getline(in, line)) {
        const std::size_t at = line.find(kHeader);
        if (at != std::string::npos) {
          const std::size_t open = at + kHeader.size();
          const std::size_t close = line.find(']', open);
          current = close == std::string::npos
                        ? std::string{}
                        : line.substr(open, close - open);
          continue;
        }
        if (current.empty()) continue;
        const std::vector<std::string> toks = split_ws(line);
        if (toks.size() < 3 || !is_hex(toks[0])) continue;
        std::string target = toks[2];
        // Strip the "+0x..."/"-0x..." addend objdump appends.
        const std::size_t plus = target.rfind("+0x");
        const std::size_t minus = target.rfind("-0x");
        const std::size_t cut = std::min(plus, minus);
        if (cut != std::string::npos) target = target.substr(0, cut);
        if (target.empty()) continue;
        out.section_targets[current].push_back(std::move(target));
      }
    }
    return out;
  }

  // BFS over (object, section) nodes from every hot root. A relocation to a
  // symbol the object does not define resolves to its global definition in
  // another src/ object, so a hot path is followed across translation units;
  // a symbol defined nowhere under src/ stays a trusted leaf. parent[]
  // remembers the edge that first reached each node so a violation can
  // print the call chain.
  void walk_hot_graph(const std::vector<AuditObject>& objects) {
    using Node = std::pair<std::size_t, std::string>;  // (object, section)
    std::map<std::string, Node> definitions;  // global symbol -> node
    for (std::size_t i = 0; i < objects.size(); ++i) {
      for (const std::string& name : objects[i].global_symbols) {
        // The first definition wins (COMDAT copies are identical).
        definitions.emplace(name,
                            Node{i, objects[i].symbol_section.at(name)});
      }
    }

    std::map<Node, Node> parent;
    std::set<Node> visited;
    std::set<std::pair<Node, std::string>> reported;
    std::vector<Node> queue;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      for (const std::string& h : objects[i].hot_sections) {
        visited.insert({i, h});
        queue.push_back({i, h});
      }
    }

    auto section_name_of = [&](const Node& node) {
      const auto& [obj, section] = node;
      const auto it = objects[obj].section_func.find(section);
      if (it != objects[obj].section_func.end()) return demangle(it->second);
      // .text.hot.<mangled> / .text.<mangled>: recover the function name
      // from the section name itself.
      for (const std::string_view prefix :
           {std::string_view{".text.hot."}, std::string_view{".text.unlikely."},
            std::string_view{".text."}}) {
        if (section.rfind(prefix, 0) == 0) {
          return demangle(section.substr(prefix.size()));
        }
      }
      return section;
    };
    auto chain_of = [&](const Node& node) {
      std::vector<std::string> hops{section_name_of(node)};
      Node cur = node;
      while (true) {
        const auto it = parent.find(cur);
        if (it == parent.end()) break;
        cur = it->second;
        hops.push_back(section_name_of(cur));
      }
      std::string out;
      for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
        if (!out.empty()) out += " -> ";
        out += *it;
      }
      return out;
    };
    auto follow = [&](const Node& from, const Node& to) {
      const std::string& tsec = to.second;
      if (tsec.rfind(".text", 0) != 0) return;  // data/rodata/jump tables
      if (tsec.rfind(".text.unlikely.", 0) == 0) return;  // cold half
      if (visited.insert(to).second) {
        parent[to] = from;
        queue.push_back(to);
      }
    };

    while (!queue.empty()) {
      const Node node = queue.back();
      queue.pop_back();
      const AuditObject& object = objects[node.first];
      const auto edges = object.section_targets.find(node.second);
      if (edges == object.section_targets.end()) continue;
      for (const std::string& target : edges->second) {
        // A target that IS a section name (e.g. ".text.foo" from a PC32
        // reloc against a local symbol) is followed directly.
        if (target[0] == '.') {
          follow(node, {node.first, target});
          continue;
        }
        const std::string pretty = demangle(target);
        if (matches_any(target, pretty, config_.audit_banned)) {
          const std::string caller = section_name_of(node);
          bool allowed_edge = false;
          for (const auto& [from, to] : config_.audit_allow) {
            if (name_matches(node.second, caller, from) &&
                name_matches(target, pretty, to)) {
              allowed_edge = true;
              break;
            }
          }
          if (allowed_edge) {
            ++allows_used_;
            continue;
          }
          if (!reported.insert({node, target}).second) continue;
          Violation v;
          v.file = object.rel;
          v.line = 1;
          v.rule = "audit";
          v.message = "hot path reaches banned symbol '" + pretty +
                      "': " + chain_of(node) + " -> " + pretty;
          v.hint = "hot code must not allocate/lock/throw/log: move the "
                   "branch behind ARVY_COLD, or declare the edge in "
                   "[audit] allow with a written justification";
          violations_.push_back(std::move(v));
          continue;
        }
        if (matches_any(target, pretty, config_.audit_assume_clean)) continue;
        const auto local = object.symbol_section.find(target);
        if (local != object.symbol_section.end()) {
          follow(node, {node.first, local->second});
          continue;
        }
        const auto def = definitions.find(target);
        if (def == definitions.end()) continue;  // defined nowhere: trusted
        follow(node, def->second);
      }
    }
  }

  // --- output --------------------------------------------------------------

  [[nodiscard]] const SourceFile* find_file(const std::string& rel) const {
    for (const auto& f : files_) {
      if (f.rel == rel) return &f;
    }
    return nullptr;
  }

  static std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  void write_stats_json() const {
    std::ofstream out(options_.stats_json_path);
    std::map<std::string, std::size_t> counts;
    for (const auto& r : kAllRules) counts[r] = 0;
    for (const auto& v : violations_) ++counts[v.rule];
    out << "{\n  \"files_scanned\": " << files_.size() << ",\n";
    out << "  \"allows_used\": " << allows_used_ << ",\n";
    out << "  \"audit_objects_scanned\": " << audit_objects_scanned_ << ",\n";
    out << "  \"audit_hot_functions\": " << audit_hot_functions_ << ",\n";
    out << "  \"rule_counts\": {";
    bool first = true;
    for (const auto& [rule, count] : counts) {
      out << (first ? "" : ", ") << '"' << rule << "\": " << count;
      first = false;
    }
    out << "},\n  \"violations\": [";
    first = true;
    for (const auto& v : violations_) {
      out << (first ? "\n" : ",\n");
      out << "    {\"file\": \"" << json_escape(v.file)
          << "\", \"line\": " << v.line << ", \"rule\": \"" << v.rule
          << "\", \"message\": \"" << json_escape(v.message) << "\"}";
      first = false;
    }
    out << (violations_.empty() ? "]" : "\n  ]");
    out << ",\n  \"clean\": " << (violations_.empty() ? "true" : "false")
        << "\n}\n";
  }

  int report() {
    std::sort(violations_.begin(), violations_.end(),
              [](const Violation& a, const Violation& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    for (const auto& v : violations_) {
      std::cout << v.file << ':' << v.line << ": [" << v.rule << "] "
                << v.message << '\n';
      if (!v.hint.empty() && !options_.quiet) {
        std::cout << "  hint: " << v.hint << '\n';
      }
    }
    if (!options_.stats_json_path.empty()) write_stats_json();
    if (violations_.empty()) {
      if (!options_.quiet) {
        std::cout << "arvy_lint: OK (" << files_.size() << " files, 0 "
                  << "violations, " << allows_used_ << " allows used)\n";
      }
      return 0;
    }
    std::map<std::string, std::size_t> counts;
    for (const auto& v : violations_) ++counts[v.rule];
    std::cout << "arvy_lint: FAILED (" << violations_.size() << " violation"
              << (violations_.size() == 1 ? "" : "s") << ":";
    for (const auto& [rule, count] : counts) {
      std::cout << ' ' << rule << '=' << count;
    }
    std::cout << ")\n";
    return 1;
  }

  Options options_;
  Config config_;
  std::vector<SourceFile> files_;
  std::vector<Violation> violations_;
  std::size_t allows_used_ = 0;
  std::size_t audit_objects_scanned_ = 0;
  std::size_t audit_hot_functions_ = 0;
};

// ---------------------------------------------------------------------------

void usage() {
  std::cout <<
      R"(arvy_lint: project-specific static analysis for the Arvy tree

usage: arvy_lint [options]
  --root DIR              tree to lint (default: .)
  --layers FILE           layer DAG + rule config
                          (default: ROOT/docs/layers.toml, else
                          ROOT/layers.toml)
  --compile-commands FILE CMake compile database for TU coverage cross-check
  --rule NAME             run only this rule (repeatable; default: all)
  --audit-objects DIR     CMake build tree whose src/ objects the `audit`
                          rule walks (hot-section call-graph audit; needs an
                          optimized build and binutils objdump)
  --stats-json FILE       write a machine-readable report (CI artifact)
  --quiet                 suppress hints and the OK summary
  --list-rules            print the rule ids and exit

rules: layering lock hotpath msgpod deprecation atomic audit
  (`audit` only runs when --audit-objects is given)
suppression: // ARVY-LINT-ALLOW(rule): justification  (covers its line + next)
exit codes: 0 clean, 1 violations, 2 usage/config error
)";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "arvy_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      options.root = need_value("--root");
    } else if (arg == "--layers") {
      options.layers_path = need_value("--layers");
    } else if (arg == "--compile-commands") {
      options.compile_commands_path = need_value("--compile-commands");
    } else if (arg == "--rule") {
      const std::string rule = need_value("--rule");
      if (std::find(kAllRules.begin(), kAllRules.end(), rule) ==
          kAllRules.end()) {
        std::cerr << "arvy_lint: unknown rule '" << rule << "'\n";
        return 2;
      }
      options.only_rules.insert(rule);
    } else if (arg == "--audit-objects") {
      options.audit_objects_dir = need_value("--audit-objects");
    } else if (arg == "--stats-json") {
      options.stats_json_path = need_value("--stats-json");
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : kAllRules) std::cout << r << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "arvy_lint: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (!fs::is_directory(options.root)) {
    std::cerr << "arvy_lint: --root '" << options.root
              << "' is not a directory\n";
    return 2;
  }
  if (options.only_rules.count("audit") > 0 &&
      options.audit_objects_dir.empty()) {
    std::cerr << "arvy_lint: --rule audit needs --audit-objects DIR\n";
    return 2;
  }
  if (options.layers_path.empty()) {
    const fs::path root(options.root);
    if (fs::exists(root / "docs" / "layers.toml")) {
      options.layers_path = (root / "docs" / "layers.toml").string();
    } else {
      options.layers_path = (root / "layers.toml").string();
    }
  }
  Config config = load_config(options.layers_path);
  Linter linter(std::move(options), std::move(config));
  return linter.run();
}
