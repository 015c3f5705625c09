// Hot-path token table (DESIGN.md §12, rules R10–R12 and R18).
//
// A function definition prefixed with the MCB_HOT_PATH marker
// (src/util/annotations.hpp) declares that its body is on the serving
// or inference fast path and must stay allocation-free (R10),
// non-throwing and non-blocking (R11), and lock-free (R12). The function
// index attaches the marker (R16 when it sits on a declaration), and
// check_transitive_hot walks the call graph from every marked root: a
// construct in a root's own body keeps its R10/R11/R12 id, one in a
// reachable callee is R18. Both scan bodies with the one token table
// below, so the direct and the transitive check see the exact same
// construct set.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace mcb::lint {

/// One construct the hot-path discipline bans inside an annotated body.
struct TokenRule {
  std::string_view word;
  const char* rule;  ///< "R10" | "R11" | "R12"
  const char* what;
  bool member_only;  ///< require a preceding '.' or '->'
  bool call_only;    ///< require a following '('
};

struct TokenHit {
  const TokenRule* rule = nullptr;
  std::size_t pos = 0;  ///< offset within the scanned body
};

/// Scan one brace-delimited body (code view) for every R10/R11/R12
/// token.
std::vector<TokenHit> scan_hot_tokens(std::string_view body);

}  // namespace mcb::lint
