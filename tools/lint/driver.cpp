#include "lint/driver.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "lint/call_graph.hpp"
#include "lint/function_index.hpp"
#include "lint/graph_rules.hpp"
#include "lint/signal_safety.hpp"
#include "lint/text_rules.hpp"

namespace fs = std::filesystem;

namespace mcb::lint {

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool has_extension(const fs::path& p, std::string_view a, std::string_view b = "") {
  const std::string ext = p.extension().string();
  return ext == a || (!b.empty() && ext == b);
}

// Lint fixtures are deliberately-broken inputs for tests/test_lint.cpp;
// the repo scan must never treat them as product code. Judged on the
// root-relative path so a run rooted *inside* a fixture tree (what the
// tests themselves do) still scans the fixture's files.
bool in_fixture_dir(const std::string& rel_path) {
  for (const auto& part : fs::path(rel_path)) {
    if (part == "lint_fixtures") return true;
  }
  return false;
}

bool is_sync_wrapper_file(const fs::path& p) {
  const std::string name = p.filename().string();
  return p.parent_path().filename() == "util" &&
         (name == "sync.hpp" || name == "sync.cpp");
}

// src/obs/ implements the logger (it must reach the real stderr) and
// util/cli.cpp prints usage text; everything else logs via mcb::log.
bool may_write_streams_directly(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "obs") return true;
  }
  return p.filename() == "cli.cpp" && p.parent_path().filename() == "util";
}

// R17 applies to every src/serve file except the designated reactor /
// syscall-wrapper file, which is the one place socket I/O may live.
bool must_confine_socket_syscalls(const fs::path& p) {
  return p.parent_path().filename() == "serve" && p.filename() != "server.cpp";
}

// R22's confinement half: only the profiler module (src/obs/perf/) may
// install signal dispositions, arm profiling timers or walk stacks.
bool may_own_signal_machinery(const fs::path& p) {
  return p.parent_path().filename() == "perf" &&
         p.parent_path().parent_path().filename() == "obs";
}

std::string rel_to(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return (ec ? p : rel).generic_string();
}

fs::path resolve(const fs::path& root, const std::string& maybe_relative) {
  const fs::path p(maybe_relative);
  return p.is_absolute() ? p : root / p;
}

bool inline_suppressible(std::string_view rule) {
  // Architecture rules (R13/R14) and the lock-order rule (R20, whose
  // anchor line is one witness of a multi-site cycle) are never
  // excusable — an inline comment at one site must not be able to
  // excuse a cross-file property. R15 findings are terminal.
  return rule.size() >= 2 && rule[0] == 'R' &&
         !(rule == "R13" || rule == "R14" || rule == "R15" || rule == "R20");
}

}  // namespace

LintResult run_lint(const LintOptions& options) {
  LintResult result;
  const fs::path root(options.root);
  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    result.config_error = true;
    result.config_message = (root / "src").string() + " is not a directory";
    return result;
  }

  // Every pass below consumes this cache: each file is read and
  // tokenized exactly once, here, and only referenced afterwards.
  std::vector<FileContext> contexts;
  std::vector<fs::path> abs_paths;           // aligned with contexts
  std::vector<std::size_t> src_context_ids;  // indices into contexts
  std::vector<std::size_t> aux_context_ids;  // tools/tests/bench/examples
  std::vector<Violation> raw;                // pre-suppression findings

  const auto timed = [&](const char* name, auto&& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    result.stats.passes.push_back(
        {name, std::chrono::duration<double, std::milli>(t1 - t0).count()});
  };

  // ------------------------------------------------- load + tokenize
  timed("load+tokenize", [&] {
    std::vector<fs::path> src_files;
    for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
      if (!entry.is_regular_file()) continue;
      if (!has_extension(entry.path(), ".cpp", ".hpp")) continue;
      if (in_fixture_dir(rel_to(root, entry.path()))) continue;
      src_files.push_back(entry.path());
    }
    std::sort(src_files.begin(), src_files.end());
    for (const fs::path& path : src_files) {
      contexts.emplace_back(rel_to(root, path), scan_source(read_file(path)));
      abs_paths.push_back(path);
      src_context_ids.push_back(contexts.size() - 1);
    }
    for (const char* dir : {"tools", "tests", "bench", "examples"}) {
      const fs::path base = root / dir;
      if (!fs::is_directory(base, ec)) continue;
      std::vector<fs::path> files;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file()) continue;
        if (!has_extension(entry.path(), ".cpp", ".hpp")) continue;
        if (in_fixture_dir(rel_to(root, entry.path()))) continue;
        files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const fs::path& path : files) {
        contexts.emplace_back(rel_to(root, path), scan_source(read_file(path)));
        abs_paths.push_back(path);
        aux_context_ids.push_back(contexts.size() - 1);
      }
    }
    result.stats.files_scanned = contexts.size();
  });

  // --------------------------------------------------- per-file rules
  timed("per-file rules", [&] {
    for (const std::size_t id : src_context_ids) {
      const FileContext& ctx = contexts[id];
      const fs::path& path = abs_paths[id];
      check_no_wallclock_or_libc_rand(ctx, raw);
      check_no_naked_new_delete(ctx, raw);
      check_no_swallowing_catch_all(ctx, raw);
      if (!is_sync_wrapper_file(path)) check_no_raw_std_sync(ctx, raw);
      check_no_thread_detach(ctx, raw);
      check_relaxed_order_justified(ctx, raw);
      if (!may_write_streams_directly(path)) check_no_direct_stream_writes(ctx, raw);
      if (must_confine_socket_syscalls(path)) check_reactor_syscall_confinement(ctx, raw);
      if (!may_own_signal_machinery(path)) check_signal_machinery_confinement(ctx, raw);
    }
    // Reduced rule set for tools/tests/bench/examples: a CLI may read
    // the clock and print, but leaks, swallowed errors and detached
    // threads are still bugs there.
    for (const std::size_t id : aux_context_ids) {
      const FileContext& ctx = contexts[id];
      check_no_naked_new_delete(ctx, raw);
      check_no_swallowing_catch_all(ctx, raw);
      check_no_thread_detach(ctx, raw);
    }
  });

  // ------------------------------------------------------ include graph
  timed("include graph + layering", [&] {
    std::map<std::string, std::vector<IncludeSite>> file_graph;
    for (const std::size_t id : src_context_ids) {
      const FileContext& ctx = contexts[id];
      // "src/ml/knn.cpp" → module "ml".
      const fs::path rel(ctx.rel_path);
      auto it = rel.begin();
      ++it;  // skip "src"
      if (it == rel.end() || std::next(it) == rel.end()) continue;  // file at src/ top level
      const std::string from_module = it->string();
      for (const IncludeSite& site : scan_includes(ctx)) {
        const std::size_t slash = site.target.find('/');
        if (slash == std::string::npos) continue;  // not a module-qualified include
        if (!fs::exists(root / "src" / site.target, ec)) continue;  // outside src/
        const std::string to_module = site.target.substr(0, slash);
        result.graph.add_edge(from_module, to_module, site);
        IncludeSite resolved = site;
        resolved.target = "src/" + site.target;
        file_graph[ctx.rel_path].push_back(std::move(resolved));
      }
    }
    result.stats.modules = result.graph.module_count();
    result.stats.module_edges = result.graph.cross_edge_count();

    // An empty path resolves to the root directory, which is not a
    // manifest either.
    const fs::path layers_path = resolve(root, options.layers_file);
    if (!fs::is_regular_file(layers_path, ec)) {
      result.config_error = true;
      result.config_message = "layer manifest not found: " + layers_path.string();
      return;
    }
    LayerManifest manifest;
    std::string error;
    if (!parse_layer_manifest(read_file(layers_path), manifest, error)) {
      result.config_error = true;
      result.config_message = error;
      return;
    }
    check_layering(result.graph, manifest, raw);
    check_include_cycles(file_graph, raw);
  });
  if (result.config_error) return result;

  // --------------------------------------- whole-program passes (§13)
  FunctionIndex index;
  ContextTable table;
  timed("function index", [&] {
    for (const std::size_t id : src_context_ids) {
      index.add_file(contexts[id], id, raw);
    }
    for (const FunctionDef& def : index.defs) {
      widen_signature_suppressions(def, contexts[def.file_ctx]);
      if (def.hot_path) ++result.stats.hot_regions;
      if (def.signal_handler) ++result.stats.signal_handlers;
    }
    result.stats.functions_indexed = index.defs.size();
    table.reserve(contexts.size());
    for (const FileContext& ctx : contexts) table.push_back(&ctx);
    check_signal_handlers(table, index, raw);
  });

  std::optional<CallGraph> graph;
  timed("call graph + R18-R21", [&] {
    graph.emplace(index);
    result.stats.call_edges = graph->edge_count();
    check_transitive_hot(table, *graph, raw);
    check_reactor_blocking(table, *graph, raw);
    check_lock_order(table, *graph, raw);
    check_discarded_status(table, *graph, raw);
    result.call_graph_dot = graph->to_dot();
  });

  // ------------------------------------------------- suppression pass
  std::vector<Violation> active;
  timed("suppressions", [&] {
    std::map<std::string, std::size_t> context_of;
    for (std::size_t i = 0; i < contexts.size(); ++i) context_of[contexts[i].rel_path] = i;

    for (Violation& v : raw) {
      bool suppressed = false;
      const auto ctx_it = context_of.find(v.file);
      if (ctx_it != context_of.end() && inline_suppressible(v.rule)) {
        for (Suppression& s : contexts[ctx_it->second].suppressions) {
          if (s.malformed || s.rule != v.rule) continue;
          const bool in_scope =
              s.scope_end != 0 ? (v.line >= s.scope_begin && v.line <= s.scope_end)
                               : (v.line == s.line || v.line == s.line + 1);
          if (!in_scope) continue;
          s.used = true;
          suppressed = true;
          ++result.stats.suppressions_used;
          break;
        }
      }
      if (!suppressed) active.push_back(std::move(v));
    }

    for (const FileContext& ctx : contexts) {
      for (const Suppression& s : ctx.suppressions) {
        if (s.malformed) {
          active.push_back({ctx.rel_path, s.line, "R15",
                            "malformed suppression — use `mcb-lint: suppress(R<n>: reason)` "
                            "with a known rule and a non-empty reason", {}});
        } else if (!s.used) {
          active.push_back({ctx.rel_path, s.line, "R15",
                            "unused suppression for " + s.rule +
                                " — the finding it excused is gone; delete the comment", {}});
        }
      }
    }
  });

  std::sort(active.begin(), active.end(), [](const Violation& a, const Violation& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  result.violations = std::move(active);
  return result;
}

}  // namespace mcb::lint
