#include "lint/hot_path.hpp"

#include <string_view>

namespace mcb::lint {

namespace {

constexpr std::string_view kMarker = "MCB_HOT_PATH";

bool on_preprocessor_line(std::string_view code, std::size_t pos) {
  std::size_t bol = pos;
  while (bol > 0 && code[bol - 1] != '\n') --bol;
  const std::size_t first = next_nonspace(code.substr(bol, pos - bol), 0);
  return first != std::string_view::npos && code[bol + first] == '#';
}

constexpr TokenRule kHotTokenRules[] = {
    // R10 — heap allocation.
    {"new", "R10", "operator new allocates", false, false},
    {"make_unique", "R10", "make_unique allocates", false, false},
    {"make_shared", "R10", "make_shared allocates", false, false},
    {"malloc", "R10", "malloc allocates", false, true},
    {"calloc", "R10", "calloc allocates", false, true},
    {"realloc", "R10", "realloc allocates", false, true},
    {"strdup", "R10", "strdup allocates", false, true},
    {"to_string", "R10", "to_string builds a heap string", false, true},
    {"to_lower", "R10", "to_lower copies into a heap string", false, true},
    {"push_back", "R10", "container growth may reallocate", true, true},
    {"emplace_back", "R10", "container growth may reallocate", true, true},
    {"push_front", "R10", "container growth may reallocate", true, true},
    {"emplace_front", "R10", "container growth may reallocate", true, true},
    {"insert", "R10", "container growth may reallocate", true, true},
    {"emplace", "R10", "container growth may reallocate", true, true},
    {"emplace_hint", "R10", "container growth may reallocate", true, true},
    {"resize", "R10", "resize may reallocate", true, true},
    {"reserve", "R10", "reserve allocates", true, true},
    {"append", "R10", "string growth may reallocate", true, true},
    {"assign", "R10", "assign may reallocate", true, true},
    // R11 — throwing / blocking.
    {"throw", "R11", "throwing unwinds the fast path", false, false},
    {"sleep_for", "R11", "sleeping blocks the fast path", false, true},
    {"sleep_until", "R11", "sleeping blocks the fast path", false, true},
    {"usleep", "R11", "sleeping blocks the fast path", false, true},
    {"nanosleep", "R11", "sleeping blocks the fast path", false, true},
    {"wait", "R11", "unbounded wait blocks the fast path", false, true},
    {"accept", "R11", "blocking socket call", false, true},
    {"accept4", "R11", "blocking socket call", false, true},
    {"recv", "R11", "blocking socket call", false, true},
    {"recvfrom", "R11", "blocking socket call", false, true},
    {"send", "R11", "blocking socket call", false, true},
    {"sendto", "R11", "blocking socket call", false, true},
    {"connect", "R11", "blocking socket call", false, true},
    {"poll", "R11", "blocking socket call", false, true},
    {"select", "R11", "blocking socket call", false, true},
    {"epoll_wait", "R11", "blocking socket call", false, true},
    {"getline", "R11", "blocking stream read", false, true},
    // R12 — lock acquisition.
    {"MutexLock", "R12", "acquires a mutex", false, false},
    {"lock_guard", "R12", "acquires a mutex", false, false},
    {"unique_lock", "R12", "acquires a mutex", false, false},
    {"scoped_lock", "R12", "acquires a mutex", false, false},
    {"shared_lock", "R12", "acquires a reader lock", false, false},
    {"lock", "R12", "acquires a lock", true, true},
    {"lock_shared", "R12", "acquires a reader lock", true, true},
    {"try_lock", "R12", "lock acquisition attempt", true, true},
};

}  // namespace

std::vector<TokenHit> scan_hot_tokens(std::string_view body) {
  std::vector<TokenHit> hits;
  for (const TokenRule& rule : kHotTokenRules) {
    for (std::size_t pos = find_word(body, rule.word, 0);
         pos != std::string_view::npos;
         pos = find_word(body, rule.word, pos + 1)) {
      if (rule.call_only && !call_like(body, pos, rule.word.size())) continue;
      if (rule.member_only) {
        const char before = prev_nonspace(body, pos);
        if (before != '.' && before != '>') continue;
      }
      // `= delete` style declarations cannot appear in a body; no
      // extra filtering needed beyond the word match.
      hits.push_back({&rule, pos});
    }
  }
  return hits;
}

std::vector<HotRegion> find_marked_regions(const FileContext& ctx,
                                           std::string_view marker,
                                           std::vector<Violation>& out) {
  std::vector<HotRegion> regions;
  const std::string_view code = ctx.view.code;
  const std::string name(marker);
  for (std::size_t pos = find_word(code, marker, 0); pos != std::string_view::npos;
       pos = find_word(code, marker, pos + 1)) {
    if (on_preprocessor_line(code, pos)) continue;  // the #define itself
    const std::size_t params_open = code.find('(', pos + marker.size());
    if (params_open == std::string_view::npos) {
      ctx.add(pos, "R16", name + " is not followed by a function definition", out);
      continue;
    }
    const std::size_t params_close = match_forward(code, params_open, '(', ')');
    if (params_close == std::string_view::npos) {
      ctx.add(pos, "R16", name + ": unterminated parameter list", out);
      continue;
    }
    const std::string function = name_before(code, params_open);
    const std::size_t body_open = find_body_open(code, params_close + 1);
    if (body_open == std::string_view::npos) {
      ctx.add(pos, "R16",
              name + " on a declaration of `" + function +
                  "` guards nothing — annotate the definition instead",
              out);
      continue;
    }
    const std::size_t body_close = match_forward(code, body_open, '{', '}');
    if (body_close == std::string_view::npos) {
      ctx.add(pos, "R16", name + ": unbalanced braces in `" + function + "`", out);
      continue;
    }
    regions.push_back({function, pos, body_open, body_close});
  }
  return regions;
}

std::vector<HotRegion> find_hot_regions(const FileContext& ctx,
                                        std::vector<Violation>& out) {
  return find_marked_regions(ctx, kMarker, out);
}

std::size_t check_hot_paths(FileContext& ctx, std::vector<Violation>& out) {
  std::vector<HotRegion> regions = find_hot_regions(ctx, out);
  if (regions.empty()) return 0;
  const std::string_view code = ctx.view.code;

  for (const HotRegion& region : regions) {
    // Widen signature-level suppressions to the whole body: a reader
    // sees the policy exception next to the annotation it excuses.
    const std::size_t anno_line = ctx.lines.line_of(region.anno_pos);
    const std::size_t open_line = ctx.lines.line_of(region.body_begin);
    const std::size_t close_line = ctx.lines.line_of(region.body_end);
    for (Suppression& s : ctx.suppressions) {
      if (s.malformed) continue;
      if (s.line >= anno_line && s.line <= open_line) {
        s.scope_begin = anno_line;
        s.scope_end = close_line;
      }
    }

    const std::string_view body = code.substr(region.body_begin,
                                              region.body_end - region.body_begin + 1);
    for (const TokenHit& hit : scan_hot_tokens(body)) {
      const TokenRule& rule = *hit.rule;
      ctx.add(region.body_begin + hit.pos, rule.rule,
              std::string(rule.what) + " inside MCB_HOT_PATH function `" +
                  region.function + "` — hot paths must stay " +
                  (rule.rule == std::string_view("R10")
                       ? "allocation-free (reuse warm buffers)"
                   : rule.rule == std::string_view("R11")
                       ? "non-blocking and non-throwing"
                       : "lock-free (shift synchronization to the caller or shard it)"),
              out);
    }
  }
  return regions.size();
}

}  // namespace mcb::lint
