// Diagnostics layer of mcbound_lint (DESIGN.md §12): the violation
// record every rule emits, the rule catalog (used by the SARIF
// reporter) and inline suppressions.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/source_view.hpp"

namespace mcb::lint {

/// One step of a whole-program call chain (R18/R19 root→leaf paths,
/// R20 lock-order witnesses). Rendered as indented sub-lines in text
/// output and as SARIF codeFlows/threadFlows locations.
struct ChainStep {
  std::string file;  ///< path relative to the lint root
  std::size_t line = 0;
  std::string note;  ///< function name or step description
};

struct Violation {
  std::string file;  ///< path relative to the lint root, '/'-separated
  std::size_t line = 0;
  std::string rule;  ///< "R1".."R21"
  std::string message;
  std::vector<ChainStep> chain;  ///< empty for intraprocedural rules
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
  std::string_view level;      ///< SARIF defaultConfiguration.level
  std::string_view rationale;  ///< docs/lint_rules.md prose
  std::string_view example;    ///< an offending snippet
  std::string_view recipe;     ///< how to fix or legitimately suppress
};

/// Every rule the analyzer can emit, in id order. SARIF requires the
/// full catalog up front; `--rules=markdown` renders docs/lint_rules.md
/// from the same table so the docs cannot drift from the analyzer.
const std::vector<RuleInfo>& rule_catalog();

/// True when `rule` names a catalogued rule id.
bool known_rule(std::string_view rule);

// ---------------------------------------------------------------------
// Inline suppressions: a comment spelling the marker `mcb-lint`, a
// colon, then `suppress(R<n>: <reason>)` — written apart here so this
// very comment does not register as a suppression when the analyzer
// scans its own sources. Scope is the comment's own line and the line below it; a
// suppression written between a marker (MCB_HOT_PATH, MCB_SIGNAL_HANDLER,
// a boundary marker) and the function's opening brace covers the whole
// function body (widen_signature_suppressions). The reason is mandatory
// — a suppression without one is itself reported (R15), as is one that
// suppresses nothing.
struct Suppression {
  std::size_t line = 0;   ///< line the comment sits on
  std::string rule;
  std::string reason;
  bool malformed = false;
  // Widened scope (inclusive line range) for marked-body suppressions;
  // 0/0 means the default two-line scope.
  std::size_t scope_begin = 0;
  std::size_t scope_end = 0;
  bool used = false;
};

/// Parse every suppression comment in the file. Scans the comments view
/// only, so quoted suppression text in code cannot suppress anything.
std::vector<Suppression> parse_suppressions(const SourceView& view);

// ---------------------------------------------------------------------
// Per-file analysis context shared by all passes.
struct FileContext {
  std::string rel_path;  ///< '/'-separated, relative to the lint root
  SourceView view;
  LineIndex lines;       ///< built over view.raw
  std::vector<Suppression> suppressions;

  FileContext(std::string rel, SourceView v)
      : rel_path(std::move(rel)), view(std::move(v)), lines(view.raw) {
    suppressions = parse_suppressions(view);
  }

  void add(std::size_t pos, std::string rule, std::string message,
           std::vector<Violation>& out) const {
    out.push_back({rel_path, lines.line_of(pos), std::move(rule), std::move(message), {}});
  }
};

}  // namespace mcb::lint
