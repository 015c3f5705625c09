#include "lint/hot_path.hpp"

#include "lint/source_view.hpp"

namespace mcb::lint {

namespace {

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

}  // namespace mcb::lint
