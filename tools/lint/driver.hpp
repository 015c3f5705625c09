// Orchestration of the mcbound_lint passes (DESIGN.md §12–§13): load
// and tokenize every file ONCE into a shared context cache, run the
// per-file rules, build the include graph and enforce the layer
// manifest, build the cross-TU function index (the one marker parser)
// and call graph and run the whole-program rules (R10–R12 with R18,
// R19–R22), then resolve inline suppressions into the final violation
// list. Each pass is timed; `--verbose` prints the breakdown. Exposed
// as a library (mcb_lint_core) so tests/test_lint.cpp drives the same
// code paths CI does.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"
#include "lint/include_graph.hpp"

namespace mcb::lint {

struct LintOptions {
  std::string root;  ///< repo root (contains src/)
  /// Layer manifest, relative to root when not absolute. A missing or
  /// empty path is a config error: there is no run without R13.
  std::string layers_file = "tools/lint/layers.txt";
};

/// Wall time of one analysis pass, in the order the passes ran.
struct PassTiming {
  std::string name;
  double ms = 0.0;
};

struct LintStats {
  std::size_t files_scanned = 0;
  std::size_t hot_regions = 0;
  std::size_t signal_handlers = 0;
  std::size_t suppressions_used = 0;
  std::size_t modules = 0;
  std::size_t module_edges = 0;
  std::size_t functions_indexed = 0;
  std::size_t call_edges = 0;
  std::vector<PassTiming> passes;
};

struct LintResult {
  bool config_error = false;     ///< bad root / missing or unparseable manifest
  std::string config_message;
  std::vector<Violation> violations;  ///< post-suppression
  ModuleGraph graph;
  /// Call-graph slice reachable from the hot-path / reactor roots
  /// (`--graph=dot --graph-kind=calls`, docs/call_graph.dot).
  std::string call_graph_dot;
  LintStats stats;
};

LintResult run_lint(const LintOptions& options);

}  // namespace mcb::lint
