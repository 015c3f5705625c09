// mcbound_lint — the repo's own static analyzer (DESIGN.md §7, §12, §13).
//
// PR 2 grew a bag of per-file token scans (rules R1–R9); this driver
// now fronts a multi-pass, whole-program analyzer (tools/lint/):
//
//   * a lexical front-end producing aligned code/comment views of every
//     translation unit (tools/lint/source_view);
//   * token rules R1–R3, R6–R9 and R17 over those views
//     (tools/lint/text_rules); header self-containment and include
//     guards are not rules here — the build compiles every src/ header
//     alone, twice (tests/CMakeLists.txt);
//   * an include-graph pass that builds the module dependency DAG under
//     src/ and enforces the declared layer manifest
//     tools/lint/layers.txt — back-edges and peer edges are R13, include
//     cycles are R14 (tools/lint/include_graph);
//   * a diagnostics layer with inline suppressions (the `mcb-lint`
//     suppression comments of DESIGN.md §12) and hygiene rule R15 that
//     fails malformed and unused suppressions;
//   * a cross-TU function index — the one parser of the MCB_HOT_PATH,
//     boundary and MCB_SIGNAL_HANDLER markers — and call graph
//     (tools/lint/function_index, tools/lint/call_graph) feeding the
//     whole-program rules: hot-path discipline in one walk from every
//     MCB_HOT_PATH root (R10–R12 in a root's own body, R18 in what it
//     reaches), reactor blocking-reachability (R19), static lock-order
//     deadlock detection (R20), discarded bool/status results (R21)
//     (tools/lint/graph_rules), and signal-handler bodies (R22,
//     tools/lint/signal_safety);
//   * text, SARIF and markdown reporters — CI uploads the SARIF run to
//     GitHub code scanning, and docs/lint_rules.md is rendered from the
//     rule catalog via --rules=markdown (tools/lint/report).
//
// Exit status: 0 = clean, 1 = violations printed, 2 = usage/config
// error. Text findings print one per line as
//   <file>:<line>: [R<n>] <message>
// so editors and CI can jump straight to the offence.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "lint/diagnostics.hpp"
#include "lint/driver.hpp"
#include "lint/report.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: mcbound_lint --root <repo-root> [--format text|sarif]\n"
      << "                    [--graph dot] [--graph-kind modules|calls]\n"
      << "                    [--rules markdown] [--output <file>] [--verbose]\n"
      << "\n"
      << "  --format sarif        emit SARIF 2.1.0 (for GitHub code scanning)\n"
      << "  --graph dot           print a dependency graph and exit\n"
      << "  --graph-kind calls    with --graph: the hot/reactor call-graph slice\n"
      << "                        instead of the src/ module DAG (the default)\n"
      << "  --rules markdown      print the rule reference (docs/lint_rules.md) and exit\n"
      << "  --verbose             print run statistics and per-pass wall times\n"
      << "\nrules:\n";
  for (const auto& rule : mcb::lint::rule_catalog()) {
    std::cerr << "  " << rule.id << (rule.id.size() < 3 ? "   " : "  ") << rule.summary
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  mcb::lint::LintOptions options;
  bool verbose = false;
  std::string format = "text";
  std::string graph;
  std::string graph_kind = "modules";
  std::string rules;
  std::string output;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    bool has_inline_value = false;
    // Accept both `--flag value` and `--flag=value`.
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    const auto next = [&]() -> const char* {
      if (has_inline_value) return value.data();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--root") {
      if ((v = next()) == nullptr) { usage(); return 2; }
      options.root = v;
    } else if (arg == "--format") {
      if ((v = next()) == nullptr) { usage(); return 2; }
      format = v;
    } else if (arg == "--graph") {
      if ((v = next()) == nullptr) { usage(); return 2; }
      graph = v;
    } else if (arg == "--graph-kind") {
      if ((v = next()) == nullptr) { usage(); return 2; }
      graph_kind = v;
    } else if (arg == "--rules") {
      if ((v = next()) == nullptr) { usage(); return 2; }
      rules = v;
    } else if (arg == "--output") {
      if ((v = next()) == nullptr) { usage(); return 2; }
      output = v;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!rules.empty()) {
    // Pure emission mode: no scan, just the catalog.
    if (rules != "markdown") {
      std::cerr << "mcbound_lint: unknown --rules `" << rules << "` (markdown)\n";
      return 2;
    }
    mcb::lint::print_rules_markdown(std::cout);
    return 0;
  }
  if (options.root.empty()) {
    usage();
    return 2;
  }
  if (format != "text" && format != "sarif") {
    std::cerr << "mcbound_lint: unknown --format `" << format << "` (text|sarif)\n";
    return 2;
  }
  if (!graph.empty() && graph != "dot") {
    std::cerr << "mcbound_lint: unknown --graph `" << graph << "` (dot)\n";
    return 2;
  }
  if (graph_kind != "modules" && graph_kind != "calls") {
    std::cerr << "mcbound_lint: unknown --graph-kind `" << graph_kind
              << "` (modules|calls)\n";
    return 2;
  }

  const mcb::lint::LintResult result = mcb::lint::run_lint(options);
  if (result.config_error) {
    std::cerr << "mcbound_lint: " << result.config_message << "\n";
    return 2;
  }

  std::ofstream file_out;
  if (!output.empty()) {
    file_out.open(output, std::ios::binary);
    if (!file_out) {
      std::cerr << "mcbound_lint: cannot write " << output << "\n";
      return 2;
    }
  }
  std::ostream& out = output.empty() ? std::cout : file_out;

  if (graph == "dot") {
    // Pure emission mode for the CI drift gates and DESIGN.md: print the
    // requested graph and report nothing else (rule findings still gate
    // the regular invocation).
    out << (graph_kind == "calls" ? result.call_graph_dot : result.graph.to_dot());
    return 0;
  }

  if (format == "sarif") {
    mcb::lint::print_sarif(out, result.violations);
  } else {
    mcb::lint::print_text(out, result.violations);
  }
  if (verbose || !result.violations.empty()) {
    std::cerr << "mcbound_lint: scanned " << result.stats.files_scanned << " files, "
              << result.stats.modules << " modules / " << result.stats.module_edges
              << " edges, " << result.stats.hot_regions << " hot regions, "
              << result.stats.signal_handlers << " signal handler(s), "
              << result.stats.functions_indexed << " functions / "
              << result.stats.call_edges << " call edges, "
              << result.stats.suppressions_used << " suppression(s), "
              << result.violations.size() << " violation(s)\n";
  }
  if (verbose) {
    double total = 0.0;
    for (const mcb::lint::PassTiming& pass : result.stats.passes) {
      std::fprintf(stderr, "mcbound_lint:   %-32s %8.2f ms\n", pass.name.c_str(),
                   pass.ms);
      total += pass.ms;
    }
    std::fprintf(stderr, "mcbound_lint:   %-32s %8.2f ms\n", "total", total);
  }
  return result.violations.empty() ? 0 : 1;
}
