#include "lint/function_index.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace mcb::lint {

namespace {

// Heads that look like `word (...)` but never open a function body.
constexpr std::string_view kNonDefKeywords[] = {
    "if",       "for",      "while",    "switch",   "catch",     "return",
    "sizeof",   "alignof",  "alignas",  "decltype", "noexcept",  "throw",
    "new",      "delete",   "co_await", "co_return","co_yield",  "typeid",
    "static_assert", "assert",  "defined", "case",   "default",   "else",
    "do",       "goto",     "using",    "typedef",  "void",      "int",
    "char",     "bool",     "float",    "double",   "auto",      "unsigned",
    "signed",   "long",     "short",    "const",    "constexpr", "consteval",
    "constinit","static",   "inline",   "extern",   "virtual",   "explicit",
    "operator", "template", "typename", "requires", "try",       "public",
    "private",  "protected"};

bool is_keyword_head(std::string_view name) {
  // Qualified names keep only their last component for the check.
  const std::size_t colon = name.rfind("::");
  const std::string_view last =
      colon == std::string_view::npos ? name : name.substr(colon + 2);
  return std::any_of(std::begin(kNonDefKeywords), std::end(kNonDefKeywords),
                     [&](std::string_view kw) { return kw == last; });
}

// ALL_CAPS names are attribute/marker macros (MCB_CAPABILITY, MCB_HOT_PATH,
// ...), not functions; indexing them as definitions would attach class
// bodies to macro names.
bool is_macro_name(std::string_view name) {
  bool has_alpha = false;
  for (const char c : name) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isupper(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

// `operator==`, `operator()`, `operator[]`, `operator bool`... — the
// plain identifier walk stops at the symbol characters, so recognize the
// form explicitly and fold it into one name.
std::string operator_name_before(std::string_view code, std::size_t paren) {
  std::size_t end = paren;
  while (end > 0 && code[end - 1] == ' ') --end;
  std::size_t begin = end;
  static constexpr std::string_view kOpChars = "+-*/%^&|~!=<>,";
  while (begin > 0 && kOpChars.find(code[begin - 1]) != std::string_view::npos) {
    --begin;
  }
  // operator() / operator[] spell their symbol as a bracket pair.
  if (begin == end && begin >= 2 &&
      ((code[begin - 2] == '(' && code[begin - 1] == ')') ||
       (code[begin - 2] == '[' && code[begin - 1] == ']'))) {
    begin -= 2;
  }
  if (begin == end) return {};
  std::size_t word_end = begin;
  while (word_end > 0 && code[word_end - 1] == ' ') --word_end;
  std::size_t word_begin = word_end;
  while (word_begin > 0 && is_ident_char(code[word_begin - 1])) --word_begin;
  if (code.substr(word_begin, word_end - word_begin) != "operator") return {};
  // Re-attach any `Class::` qualification in front of `operator`.
  std::size_t qual_begin = word_begin;
  while (qual_begin > 0 && (is_ident_char(code[qual_begin - 1]) ||
                            code[qual_begin - 1] == ':')) {
    --qual_begin;
  }
  std::string name(code.substr(qual_begin, word_end - qual_begin));
  name += std::string(code.substr(begin, end - begin));
  return name;
}

struct ScopeRegion {
  std::string name;        ///< "" for anonymous namespaces
  std::size_t body_begin;  ///< '{'
  std::size_t body_end;    ///< matching '}'
};

// namespace/class/struct regions, for qualifying definitions. `enum
// class` regions are recorded too — harmless, nothing indexes inside.
std::vector<ScopeRegion> scan_scopes(std::string_view code) {
  std::vector<ScopeRegion> regions;
  for (const std::string_view kw : {std::string_view("namespace"),
                                    std::string_view("class"),
                                    std::string_view("struct")}) {
    for (std::size_t pos = find_word(code, kw, 0); pos != std::string_view::npos;
         pos = find_word(code, kw, pos + 1)) {
      std::size_t i = pos + kw.size();
      std::string name;
      // Walk the head: pick up the first real identifier (skipping
      // attribute macros and their arguments), stop at '{' (region),
      // ';' (forward declaration), or anything that rules a scope out
      // ('=' alias, ')' cast, '>' template parameter, ',').
      while (i < code.size()) {
        const std::size_t tok = next_nonspace(code, i);
        if (tok == std::string_view::npos) break;
        const char c = code[tok];
        if (c == '{') {
          const std::size_t close = match_forward(code, tok, '{', '}');
          if (close != std::string_view::npos) {
            regions.push_back({name, tok, close});
          }
          break;
        }
        if (c == ';' || c == '=' || c == ')' || c == '>' || c == ',' || c == '(') break;
        if (c == ':' && tok + 1 < code.size() && code[tok + 1] != ':') {
          // Base-clause: the name is fixed, keep walking to the '{'.
          i = tok + 1;
          continue;
        }
        if (is_ident_char(c)) {
          std::size_t end = tok;
          while (end < code.size() && is_ident_char(code[end])) ++end;
          const std::string_view word = code.substr(tok, end - tok);
          if (word == "final" || word == "alignas") {
            i = end;
            continue;
          }
          if (is_macro_name(word)) {
            // Attribute macro; skip a parenthesized argument if present.
            std::size_t after = next_nonspace(code, end);
            if (after != std::string_view::npos && code[after] == '(') {
              const std::size_t close = match_forward(code, after, '(', ')');
              if (close == std::string_view::npos) break;
              i = close + 1;
            } else {
              i = end;
            }
            continue;
          }
          if (name.empty()) {
            name.assign(word);
            // Nested-namespace shorthand `namespace a::b {`.
            while (end + 1 < code.size() && code[end] == ':' && code[end + 1] == ':') {
              std::size_t comp_end = end + 2;
              while (comp_end < code.size() && is_ident_char(code[comp_end])) ++comp_end;
              name += std::string(code.substr(end, comp_end - end));
              end = comp_end;
            }
            i = end;
            continue;
          }
          // Second identifier without a '{': `struct stat st` — not a scope.
          break;
        }
        i = tok + 1;
      }
    }
  }
  std::sort(regions.begin(), regions.end(),
            [](const ScopeRegion& a, const ScopeRegion& b) {
              return a.body_begin < b.body_begin;
            });
  return regions;
}

std::string qualify(const std::vector<ScopeRegion>& scopes, std::size_t pos,
                    const std::string& written) {
  std::string qualified;
  for (const ScopeRegion& scope : scopes) {
    if (pos > scope.body_begin && pos < scope.body_end && !scope.name.empty()) {
      qualified += scope.name;
      qualified += "::";
    }
  }
  std::string_view name = written;
  while (name.size() >= 2 && name.substr(0, 2) == "::") name.remove_prefix(2);
  qualified += std::string(name);
  return qualified;
}

// The scoped-lock vocabulary whose construction sites feed the R20
// lock-order graph (both the annotated wrappers and the std guards, so
// fixtures and pre-migration code index the same way).
constexpr std::string_view kScopedLocks[] = {
    "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};

std::string normalize_capability(std::string_view arg) {
  std::string out;
  for (const char c : arg) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    out += c;
  }
  while (!out.empty() && (out.front() == '&' || out.front() == '*')) {
    out.erase(out.begin());
  }
  if (out.rfind("this->", 0) == 0) out.erase(0, 6);
  return out;
}

void scan_lock_sites(std::string_view code, std::size_t begin, std::size_t end,
                     FunctionDef& def) {
  const std::string_view body = code.substr(0, end);
  for (const std::string_view guard : kScopedLocks) {
    for (std::size_t pos = find_word(body, guard, begin);
         pos != std::string_view::npos; pos = find_word(body, guard, pos + 1)) {
      std::size_t i = pos + guard.size();
      std::size_t tok = next_nonspace(body, i);
      if (tok == std::string_view::npos) continue;
      if (body[tok] == '<') {  // lock_guard<std::mutex>
        const std::size_t close = match_forward(body, tok, '<', '>');
        if (close == std::string_view::npos) continue;
        tok = next_nonspace(body, close + 1);
        if (tok == std::string_view::npos) continue;
      }
      // Variable name of the guard object.
      if (!is_ident_char(body[tok])) continue;
      std::size_t name_end = tok;
      while (name_end < body.size() && is_ident_char(body[name_end])) ++name_end;
      const std::size_t paren = next_nonspace(body, name_end);
      if (paren == std::string_view::npos || body[paren] != '(') continue;
      const std::size_t close = match_forward(body, paren, '(', ')');
      if (close == std::string_view::npos) continue;
      // scoped_lock may take several capabilities at once.
      std::string_view args = body.substr(paren + 1, close - paren - 1);
      std::vector<std::string> caps;
      bool tagged = false;
      std::size_t start = 0;
      while (start <= args.size()) {
        std::size_t comma = args.find(',', start);
        if (comma == std::string_view::npos) comma = args.size();
        std::string cap = normalize_capability(args.substr(start, comma - start));
        // A guard constructed with a std lock tag either acquires nothing
        // (adopt_lock wraps an already-held mutex, defer_lock postpones)
        // or cannot wait (try_to_lock fails instead of blocking) — none
        // of these sites can participate in a lock-order deadlock.
        for (const std::string_view tag :
             {std::string_view("adopt_lock"), std::string_view("defer_lock"),
              std::string_view("try_to_lock")}) {
          if (cap.size() >= tag.size() &&
              cap.compare(cap.size() - tag.size(), tag.size(), tag) == 0) {
            tagged = true;
          }
        }
        if (!cap.empty()) caps.push_back(std::move(cap));
        if (comma == args.size()) break;
        start = comma + 1;
      }
      if (!tagged) {
        for (std::string& cap : caps) {
          def.locks.push_back({std::move(cap), pos, std::string(guard)});
        }
      }
    }
  }
  std::sort(def.locks.begin(), def.locks.end(),
            [](const LockSite& a, const LockSite& b) { return a.pos < b.pos; });
}

void scan_signature_caps(std::string_view code, std::size_t params_close,
                         std::size_t body_open, FunctionDef& def) {
  const std::string_view sig = code.substr(params_close, body_open - params_close);
  struct CapMacro {
    std::string_view word;
    bool entry;  ///< true: held on entry (REQUIRES); false: acquired
  };
  static constexpr CapMacro kMacros[] = {{"MCB_REQUIRES", true}, {"MCB_ACQUIRE", false}};
  for (const CapMacro& macro : kMacros) {
    for (std::size_t pos = find_word(sig, macro.word, 0);
         pos != std::string_view::npos; pos = find_word(sig, macro.word, pos + 1)) {
      const std::size_t open = next_nonspace(sig, pos + macro.word.size());
      if (open == std::string_view::npos || sig[open] != '(') continue;
      const std::size_t close = match_forward(sig, open, '(', ')');
      if (close == std::string_view::npos) continue;
      std::string_view args = sig.substr(open + 1, close - open - 1);
      std::size_t start = 0;
      while (start <= args.size()) {
        std::size_t comma = args.find(',', start);
        if (comma == std::string_view::npos) comma = args.size();
        const std::string cap = normalize_capability(args.substr(start, comma - start));
        if (!cap.empty()) {
          (macro.entry ? def.entry_caps : def.acquire_caps).push_back(cap);
        }
        if (comma == args.size()) break;
        start = comma + 1;
      }
    }
  }
}

bool word_before_is(std::string_view code, std::size_t pos, std::string_view word) {
  std::size_t end = pos;
  while (end > 0 && std::isspace(static_cast<unsigned char>(code[end - 1])) != 0) --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(code[begin - 1])) --begin;
  return code.substr(begin, end - begin) == word;
}

void scan_call_sites(std::string_view code, const FunctionDef& def,
                     const std::vector<std::pair<std::size_t, std::size_t>>& nested,
                     std::vector<CallSite>& out) {
  for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
    if (code[i] != '(') continue;
    const bool in_nested =
        std::any_of(nested.begin(), nested.end(), [&](const auto& range) {
          return i > range.first && i < range.second;
        });
    if (in_nested) continue;
    // Walk back over the (possibly qualified) callee name.
    std::size_t end = i;
    while (end > def.body_begin && code[end - 1] == ' ') --end;
    std::size_t begin = end;
    while (begin > def.body_begin &&
           (is_ident_char(code[begin - 1]) || code[begin - 1] == ':')) {
      --begin;
    }
    if (begin == end) continue;
    std::string name(code.substr(begin, end - begin));
    while (name.size() >= 2 && name.substr(0, 2) == "::") name.erase(0, 2);
    if (name.empty() || name.back() == ':') continue;
    if (std::isdigit(static_cast<unsigned char>(name.front())) != 0) continue;
    if (is_keyword_head(name) || is_macro_name(name)) continue;
    CallSite site;
    site.name = std::move(name);
    site.pos = begin;
    const char before = begin > 0 ? code[begin - 1] : '\0';
    site.member = before == '.' || (before == '>' && begin >= 2 && code[begin - 2] == '-');
    out.push_back(std::move(site));
  }
}

}  // namespace

std::string_view FunctionDef::last_name() const {
  const std::size_t colon = qualified_name.rfind("::");
  return colon == std::string::npos
             ? std::string_view(qualified_name)
             : std::string_view(qualified_name).substr(colon + 2);
}

std::vector<FunctionDef> index_functions(const FileContext& ctx,
                                         std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  std::vector<FunctionDef> defs;

  // ---------------------------------------------------- definition scan
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '(') continue;
    // Walk back over the candidate name ourselves so we keep its exact
    // span (name_before loses the start position).
    std::size_t end = i;
    while (end > 0 && code[end - 1] == ' ') --end;
    std::size_t begin = end;
    while (begin > 0 && (is_ident_char(code[begin - 1]) || code[begin - 1] == ':' ||
                         code[begin - 1] == '~')) {
      --begin;
    }
    std::string name(code.substr(begin, end - begin));
    if (name.empty() || name.back() == ':') {
      std::string op = operator_name_before(code, i);
      if (op.empty()) continue;
      name = std::move(op);
      // Recompute the span start for the operator form: symbols, then
      // the `operator` word, then any qualification.
      begin = end;
      static constexpr std::string_view kOpChars = "+-*/%^&|~!=<>,()[]";
      while (begin > 0 && kOpChars.find(code[begin - 1]) != std::string_view::npos) {
        --begin;
      }
      while (begin > 0 && code[begin - 1] == ' ') --begin;
      while (begin > 0 && (is_ident_char(code[begin - 1]) || code[begin - 1] == ':')) {
        --begin;
      }
    }
    while (name.size() >= 2 && name.substr(0, 2) == "::") {
      name.erase(0, 2);
      begin += 2;
    }
    if (name.empty()) continue;
    if (is_keyword_head(name) || is_macro_name(name)) continue;
    // `std::move(x)` and friends can never head a repo definition.
    if (name.rfind("std::", 0) == 0) continue;
    // A ctor init-list member (`: clock_(&steady_now_ns) {`) looks like a
    // definition whose body is the ctor body. Members are introduced by
    // ',' or a single ':'; a ':' is only definition context when it ends
    // an access specifier (`public:` before an inline method).
    {
      std::size_t prev = begin;
      while (prev > 0 && std::isspace(static_cast<unsigned char>(code[prev - 1])) != 0) {
        --prev;
      }
      if (prev > 0 && code[prev - 1] == ',') continue;
      if (prev > 0 && code[prev - 1] == ':' && (prev < 2 || code[prev - 2] != ':')) {
        std::size_t label_end = prev - 1;
        std::size_t label_begin = label_end;
        while (label_begin > 0 && is_ident_char(code[label_begin - 1])) --label_begin;
        const std::string_view label = code.substr(label_begin, label_end - label_begin);
        if (label != "public" && label != "protected" && label != "private") continue;
      }
    }
    const std::size_t params_close = match_forward(code, i, '(', ')');
    if (params_close == std::string_view::npos) continue;
    const std::size_t body_open = find_body_open(code, params_close + 1);
    if (body_open == std::string_view::npos) continue;
    const std::size_t body_close = match_forward(code, body_open, '{', '}');
    if (body_close == std::string_view::npos) continue;
    FunctionDef def;
    def.name = name;
    def.file = ctx.rel_path;
    def.name_pos = begin;
    def.params_open = i;
    def.body_begin = body_open;
    def.body_end = body_close;
    def.returns_bool = word_before_is(code, def.name_pos, "bool");
    scan_signature_caps(code, params_close, body_open, def);
    defs.push_back(std::move(def));
  }

  // Qualify with enclosing namespace/class scopes.
  const std::vector<ScopeRegion> scopes = scan_scopes(code);
  for (FunctionDef& def : defs) {
    def.qualified_name = qualify(scopes, def.name_pos, def.name);
  }

  // ------------------------------------------------------- marker scan
  // A marker attaches to the definition whose parameter list is the
  // first '(' after it.
  std::map<std::size_t, std::size_t> def_by_params;  // params_open -> index
  for (std::size_t d = 0; d < defs.size(); ++d) def_by_params[defs[d].params_open] = d;
  struct Marker {
    std::string_view word;
    bool FunctionDef::* flag;
  };
  static const Marker kMarkers[] = {
      {"MCB_HOT_PATH", &FunctionDef::hot_path},
      {"MCB_HOT_PATH_BOUNDARY", &FunctionDef::hot_boundary},
      {"MCB_REACTOR_BOUNDARY", &FunctionDef::reactor_boundary},
      {"MCB_SIGNAL_HANDLER", &FunctionDef::signal_handler},
  };
  for (const Marker& marker : kMarkers) {
    for (std::size_t pos = find_word(code, marker.word, 0);
         pos != std::string_view::npos;
         pos = find_word(code, marker.word, pos + 1)) {
      // Skip the #define itself.
      std::size_t bol = pos;
      while (bol > 0 && code[bol - 1] != '\n') --bol;
      const std::size_t first = next_nonspace(code.substr(bol, pos - bol), 0);
      if (first != std::string_view::npos && code[bol + first] == '#') continue;
      const std::size_t paren = code.find('(', pos + marker.word.size());
      const auto it = paren == std::string_view::npos
                          ? def_by_params.end()
                          : def_by_params.find(paren);
      if (it != def_by_params.end()) {
        FunctionDef& def = defs[it->second];
        def.*marker.flag = true;
        def.marker_pos = std::min(def.marker_pos, pos);
      } else {
        const std::string name =
            paren == std::string_view::npos ? std::string() : name_before(code, paren);
        ctx.add(pos, "R16",
                std::string(marker.word) + " on a declaration of `" + name +
                    "` guards nothing — annotate the definition instead",
                out);
      }
    }
  }

  // ------------------------------------------- call sites & lock sites
  for (std::size_t d = 0; d < defs.size(); ++d) {
    std::vector<std::pair<std::size_t, std::size_t>> nested;
    for (std::size_t o = 0; o < defs.size(); ++o) {
      if (o == d) continue;
      if (defs[o].body_begin > defs[d].body_begin &&
          defs[o].body_end < defs[d].body_end) {
        nested.emplace_back(defs[o].body_begin, defs[o].body_end);
      }
    }
    scan_call_sites(code, defs[d], nested, defs[d].calls);
    scan_lock_sites(code, defs[d].body_begin + 1, defs[d].body_end, defs[d]);
  }
  return defs;
}

void widen_signature_suppressions(const FunctionDef& def, FileContext& ctx) {
  if (def.marker_pos == std::string_view::npos) return;
  const std::size_t marker_line = ctx.lines.line_of(def.marker_pos);
  const std::size_t open_line = ctx.lines.line_of(def.body_begin);
  const std::size_t close_line = ctx.lines.line_of(def.body_end);
  for (Suppression& s : ctx.suppressions) {
    if (s.malformed) continue;
    if (s.line >= marker_line && s.line <= open_line) {
      s.scope_begin = marker_line;
      s.scope_end = close_line;
    }
  }
}

void FunctionIndex::add_file(const FileContext& ctx, std::size_t file_ctx_id,
                             std::vector<Violation>& out) {
  std::vector<FunctionDef> file_defs = index_functions(ctx, out);
  for (FunctionDef& def : file_defs) {
    def.file_ctx = file_ctx_id;
    by_last_name[std::string(def.last_name())].push_back(defs.size());
    defs.push_back(std::move(def));
  }
}

}  // namespace mcb::lint
