// Tests for the mcbound_lint analyzer library (tools/lint/): the
// lexical front-end, the token rules (a firing case and a near miss
// each), the hot-path walk, suppression parsing, the function index /
// call graph and the whole-program rules R18–R21, the report back-ends
// (text chains, SARIF codeFlows golden, markdown catalog), and
// whole-tree runs over the deliberately-broken trees in
// tests/lint_fixtures/ (layering violations, an include cycle, a
// suppression round-trip, hot/reactor chains, a root called by a root,
// a lock-order inversion, a discarded status).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lint/call_graph.hpp"
#include "lint/diagnostics.hpp"
#include "lint/driver.hpp"
#include "lint/function_index.hpp"
#include "lint/graph_rules.hpp"
#include "lint/include_graph.hpp"
#include "lint/report.hpp"
#include "lint/source_view.hpp"
#include "lint/text_rules.hpp"
#include "util/json.hpp"

namespace mcb::lint {
namespace {

std::size_t count_rule(const std::vector<Violation>& violations, std::string_view rule) {
  return static_cast<std::size_t>(std::count_if(
      violations.begin(), violations.end(),
      [&](const Violation& v) { return v.rule == rule; }));
}

bool any_message_contains(const std::vector<Violation>& violations, std::string_view rule,
                          std::string_view needle) {
  return std::any_of(violations.begin(), violations.end(), [&](const Violation& v) {
    return v.rule == rule && v.message.find(needle) != std::string::npos;
  });
}

LintResult lint_fixture(const std::string& name) {
  LintOptions options;
  options.root = std::string(MCB_LINT_FIXTURE_DIR) + "/" + name;
  options.layers_file = "layers.txt";
  return run_lint(options);
}

// ------------------------------------------------------------ tokenizer

TEST(SourceView, ViewsStayByteAligned) {
  const std::string src = "int x; // c\nauto s = \"str\";\n/* b */ char c = 'q';\n";
  const SourceView view = scan_source(src);
  EXPECT_EQ(view.raw.size(), src.size());
  EXPECT_EQ(view.code.size(), src.size());
  EXPECT_EQ(view.comments.size(), src.size());
  EXPECT_EQ(view.raw, src);
}

TEST(SourceView, StringContentsAreBlankedInCode) {
  const SourceView view = scan_source("auto s = \"new delete throw\"; int y;");
  EXPECT_EQ(find_word(view.code, "new", 0), std::string_view::npos);
  EXPECT_EQ(find_word(view.code, "delete", 0), std::string_view::npos);
  EXPECT_NE(find_word(view.code, "y", 0), std::string_view::npos);
}

TEST(SourceView, RawStringLiteralRunsToItsDelimiter) {
  // The )" inside the raw string must not terminate it; only )x" does.
  const SourceView view =
      scan_source("auto s = R\"x(new /* not a comment */ )\" still )x\"; int tail;");
  EXPECT_EQ(find_word(view.code, "new", 0), std::string_view::npos);
  EXPECT_EQ(view.comments.find("not a comment"), std::string::npos);
  EXPECT_NE(find_word(view.code, "tail", 0), std::string_view::npos);
}

TEST(SourceView, BlockCommentsDoNotNest) {
  // C++ block comments end at the FIRST */ — the second open marker is
  // inert, so the trailing code is live again.
  const SourceView view = scan_source("/* outer /* inner */ int* p = new int;");
  EXPECT_NE(find_word(view.code, "new", 0), std::string_view::npos);
  EXPECT_NE(view.comments.find("inner"), std::string::npos);
}

TEST(SourceView, CharLiteralQuoteDoesNotOpenString) {
  // '"' must not start a string that swallows the rest of the file.
  const SourceView view = scan_source("char q = '\"'; int* p = new int; char e = '\\'';");
  EXPECT_NE(find_word(view.code, "new", 0), std::string_view::npos);
}

TEST(SourceView, LineCommentKeepsTextInCommentsView) {
  const SourceView view = scan_source("x.store(1);  // relaxed: stat counter\n");
  EXPECT_NE(view.comments.find("relaxed: stat counter"), std::string::npos);
  EXPECT_EQ(find_word(view.code, "relaxed", 0), std::string_view::npos);
}

TEST(LineIndex, PositionToLine) {
  const std::string text = "one\ntwo\nthree\n";
  LineIndex lines(text);
  EXPECT_EQ(lines.line_of(0), 1u);
  EXPECT_EQ(lines.line_of(4), 2u);
  EXPECT_EQ(lines.line_of(8), 3u);
  EXPECT_EQ(lines.line(text, 2), "two");
}

// ------------------------------------------------- R1, R3, R6, R7, R9

TEST(TextRules, EachRuleFiresOnItsConstructAndNotOnANearMiss) {
  struct Case {
    const char* rule;
    void (*check)(const FileContext&, std::vector<Violation>&);
    const char* fires;
    const char* near_miss;
  };
  const Case cases[] = {
      {"R1", check_no_wallclock_or_libc_rand, "int r = rand();\n",
       "auto t = std::chrono::steady_clock::now();\n"},
      {"R3", check_no_swallowing_catch_all, "try { step(); } catch (...) {}\n",
       "try { step(); } catch (...) { throw; }\n"},
      {"R6", check_no_raw_std_sync, "std::mutex mu;\n", "mcb::Mutex mu;\n"},
      {"R7", check_no_thread_detach, "t.detach();\n", "detach(t);\n"},
      {"R9", check_no_direct_stream_writes, "std::cerr << x;\n",
       "auto s = \"std::cerr << x\";\n"},
  };
  for (const Case& c : cases) {
    const FileContext fires("src/x/a.cpp", scan_source(c.fires));
    std::vector<Violation> out;
    c.check(fires, out);
    EXPECT_EQ(count_rule(out, c.rule), 1u) << c.rule << ": " << c.fires;
    EXPECT_EQ(out.size(), count_rule(out, c.rule)) << c.rule;

    const FileContext near_miss("src/x/a.cpp", scan_source(c.near_miss));
    out.clear();
    c.check(near_miss, out);
    EXPECT_TRUE(out.empty()) << c.rule << ": " << c.near_miss;
  }
}

// --------------------------------------------------------- R8 regression

TEST(TextRules, RelaxedJustifiedByAdjacentComment) {
  FileContext ctx("src/x/a.cpp",
                  scan_source("// relaxed: stat counter\n"
                              "hits.fetch_add(1, std::memory_order_relaxed);\n"));
  std::vector<Violation> out;
  check_relaxed_order_justified(ctx, out);
  EXPECT_TRUE(out.empty());
}

TEST(TextRules, RelaxedStringLiteralIsNotAJustification) {
  // Pre-rewrite weakness: a string literal containing `relaxed:` on a
  // nearby line satisfied the justification scan. The justification must
  // now live in a comment.
  FileContext ctx("src/x/a.cpp",
                  scan_source("log(\"relaxed: not a justification\");\n"
                              "hits.fetch_add(1, std::memory_order_relaxed);\n"));
  std::vector<Violation> out;
  check_relaxed_order_justified(ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "R8");
  EXPECT_EQ(out[0].line, 2u);
}

TEST(TextRules, RelaxedInStringIsNotAnAtomicOp) {
  FileContext ctx("src/x/a.cpp",
                  scan_source("log(\"uses std::memory_order_relaxed internally\");\n"));
  std::vector<Violation> out;
  check_relaxed_order_justified(ctx, out);
  EXPECT_TRUE(out.empty());
}

// ----------------------------------------------- R17 reactor confinement

TEST(TextRules, SocketSyscallOutsideReactorIsR17) {
  FileContext ctx("src/serve/api.cpp",
                  scan_source("void f(int fd) {\n"
                              "  char b[8];\n"
                              "  ::recv(fd, b, sizeof(b), 0);\n"
                              "  ::send(fd, b, sizeof(b), 0);\n"
                              "}\n"));
  std::vector<Violation> out;
  check_reactor_syscall_confinement(ctx, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rule, "R17");
  EXPECT_EQ(out[0].line, 3u);
  EXPECT_EQ(out[1].line, 4u);
}

TEST(TextRules, MemberCallsAndIdentifiersAreNotSyscalls) {
  // `queue.accept(...)` is a member call; `epoll_wait_count` is an
  // identifier; `do_send` has the word only as a suffix. None may trip.
  FileContext ctx("src/serve/api.cpp",
                  scan_source("void f(Q& queue, int epoll_wait_count) {\n"
                              "  queue.accept(1);\n"
                              "  this->send(2);\n"
                              "  do_send(epoll_wait_count);\n"
                              "}\n"));
  std::vector<Violation> out;
  check_reactor_syscall_confinement(ctx, out);
  EXPECT_TRUE(out.empty());
}

TEST(TextRules, SyscallInStringOrCommentIsInert) {
  FileContext ctx("src/serve/http.cpp",
                  scan_source("// recv(fd) is the reactor's job\n"
                              "const char* kDoc = \"connect(addr) then send()\";\n"));
  std::vector<Violation> out;
  check_reactor_syscall_confinement(ctx, out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------- hot paths

// The hot-path walk over one file, as the driver runs it: index the file
// (R16 for a detached marker), widen signature suppressions, then walk
// from every MCB_HOT_PATH root. Returns the number of roots.
std::size_t walk_hot_paths(FileContext& ctx, std::vector<Violation>& out) {
  FunctionIndex index;
  index.add_file(ctx, 0, out);
  for (const FunctionDef& def : index.defs) widen_signature_suppressions(def, ctx);
  check_transitive_hot({&ctx}, CallGraph(index), out);
  return static_cast<std::size_t>(
      std::count_if(index.defs.begin(), index.defs.end(),
                    [](const FunctionDef& def) { return def.hot_path; }));
}

TEST(HotPath, AllocationThrowAndLockAreFlagged) {
  FileContext ctx("src/x/hot.cpp",
                  scan_source("MCB_HOT_PATH void f(int n) {\n"
                              "  auto* p = new int(n);\n"
                              "  if (n < 0) throw n;\n"
                              "  std::lock_guard<std::mutex> g(m);\n"
                              "  (void)p;\n"
                              "}\n"));
  std::vector<Violation> out;
  EXPECT_EQ(walk_hot_paths(ctx, out), 1u);
  EXPECT_EQ(count_rule(out, "R10"), 1u);
  EXPECT_EQ(count_rule(out, "R11"), 1u);
  EXPECT_EQ(count_rule(out, "R12"), 1u);
}

TEST(HotPath, MemberGrowthCallsFlaggedBareWordsNot) {
  FileContext ctx("src/x/hot.cpp",
                  scan_source("MCB_HOT_PATH void f(std::vector<int>& v, int x) {\n"
                              "  v.push_back(x);\n"
                              "  push_back(x);\n"  // free function: not container growth
                              "}\n"));
  std::vector<Violation> out;
  walk_hot_paths(ctx, out);
  EXPECT_EQ(count_rule(out, "R10"), 1u);
}

TEST(HotPath, UnannotatedFunctionIsNotChecked) {
  FileContext ctx("src/x/cold.cpp",
                  scan_source("void f() { auto* p = new int(1); (void)p; }\n"));
  std::vector<Violation> out;
  EXPECT_EQ(walk_hot_paths(ctx, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(HotPath, CtorInitListBracesDoNotEndTheSearch) {
  FileContext ctx("src/x/hot.cpp",
                  scan_source("MCB_HOT_PATH Thing::Thing(int v) noexcept\n"
                              "    : member_{v}, other_(v) {\n"
                              "  auto* p = new int(v);\n"
                              "  (void)p;\n"
                              "}\n"));
  std::vector<Violation> out;
  EXPECT_EQ(walk_hot_paths(ctx, out), 1u);
  EXPECT_EQ(count_rule(out, "R10"), 1u);
}

TEST(HotPath, MarkerOnDeclarationIsR16) {
  FileContext ctx("src/x/hot.hpp", scan_source("MCB_HOT_PATH void f(int n);\n"));
  std::vector<Violation> out;
  EXPECT_EQ(walk_hot_paths(ctx, out), 0u);
  ASSERT_EQ(count_rule(out, "R16"), 1u);
}

TEST(HotPath, SignatureSuppressionWidensToWholeBody) {
  FileContext ctx("src/x/hot.cpp",
                  scan_source("MCB_HOT_PATH\n"
                              "// mcb-lint: suppress(R10: warm scratch fixture)\n"
                              "void f(std::vector<int>& v) {\n"
                              "  int pad = 0;\n"
                              "  (void)pad;\n"
                              "  v.push_back(1);\n"
                              "}\n"));
  std::vector<Violation> out;
  walk_hot_paths(ctx, out);
  ASSERT_EQ(ctx.suppressions.size(), 1u);
  const Suppression& s = ctx.suppressions[0];
  EXPECT_EQ(s.scope_begin, 1u);
  EXPECT_EQ(s.scope_end, 7u);  // closing brace's line
  // The R10 finding (line 6) falls inside the widened scope.
  ASSERT_EQ(count_rule(out, "R10"), 1u);
  EXPECT_GE(out[0].line, s.scope_begin);
  EXPECT_LE(out[0].line, s.scope_end);
}

// ----------------------------------------------------------- suppression

TEST(Suppression, ParsesRuleAndReason) {
  const SourceView view =
      scan_source("int x;  // mcb-lint: suppress(R2: fixture reason here)\n");
  const std::vector<Suppression> parsed = parse_suppressions(view);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_FALSE(parsed[0].malformed);
  EXPECT_EQ(parsed[0].rule, "R2");
  EXPECT_EQ(parsed[0].reason, "fixture reason here");
  EXPECT_EQ(parsed[0].line, 1u);
}

TEST(Suppression, MissingReasonOrUnknownRuleIsMalformed) {
  for (const char* text : {"// mcb-lint: suppress(R2:)\n",
                           "// mcb-lint: suppress(R99: unknown rule)\n",
                           "// mcb-lint: suppress(R2)\n",
                           "// mcb-lint: sup-press(R2: typo verb)\n"}) {
    const std::vector<Suppression> parsed = parse_suppressions(scan_source(text));
    ASSERT_EQ(parsed.size(), 1u) << text;
    EXPECT_TRUE(parsed[0].malformed) << text;
  }
}

TEST(Suppression, QuotedSuppressionTextInCodeIsInert) {
  const SourceView view =
      scan_source("auto s = \"// mcb-lint: suppress(R2: inside a string)\";\n");
  EXPECT_TRUE(parse_suppressions(view).empty());
}

// ----------------------------------------------------------- module graph

TEST(ModuleGraph, DotRenderIsSortedAndDeterministic) {
  ModuleGraph graph;
  graph.add_edge("serve", "util", {"src/serve/a.cpp", 1, "util/x.hpp"});
  graph.add_edge("core", "util", {"src/core/b.cpp", 2, "util/x.hpp"});
  graph.add_edge("core", "ml", {"src/core/b.cpp", 3, "ml/y.hpp"});
  const std::string dot = graph.to_dot();
  const std::size_t core_ml = dot.find("\"core\" -> \"ml\"");
  const std::size_t core_util = dot.find("\"core\" -> \"util\"");
  const std::size_t serve_util = dot.find("\"serve\" -> \"util\"");
  ASSERT_NE(core_ml, std::string::npos);
  ASSERT_NE(core_util, std::string::npos);
  ASSERT_NE(serve_util, std::string::npos);
  EXPECT_LT(core_ml, core_util);
  EXPECT_LT(core_util, serve_util);
}

// --------------------------------------------------------- fixture trees

TEST(Fixtures, LayeringViolationsReported) {
  const LintResult result = lint_fixture("layering_violation");
  ASSERT_FALSE(result.config_error) << result.config_message;
  EXPECT_TRUE(any_message_contains(result.violations, "R13", "back-edge"));
  EXPECT_TRUE(any_message_contains(result.violations, "R13", "peer-layer"));
  EXPECT_TRUE(any_message_contains(result.violations, "R13", "`rogue`"));
  EXPECT_EQ(count_rule(result.violations, "R13"), 3u);
  // The offending include is named so the finding is actionable.
  EXPECT_TRUE(any_message_contains(result.violations, "R13", "serve/api.hpp"));
}

TEST(Fixtures, IncludeCycleReportedWithChain) {
  const LintResult result = lint_fixture("include_cycle");
  ASSERT_FALSE(result.config_error) << result.config_message;
  ASSERT_GE(count_rule(result.violations, "R14"), 1u);
  EXPECT_TRUE(any_message_contains(result.violations, "R14", "src/core/a.hpp"));
  EXPECT_TRUE(any_message_contains(result.violations, "R14", "src/core/b.hpp"));
  EXPECT_TRUE(any_message_contains(result.violations, "R14", "->"));
}

TEST(Fixtures, SuppressionRoundTrip) {
  const LintResult result = lint_fixture("suppression");
  ASSERT_FALSE(result.config_error) << result.config_message;
  // ok.cpp's naked new is excused; stale.cpp's unused suppression is the
  // one and only finding.
  EXPECT_EQ(count_rule(result.violations, "R2"), 0u);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].rule, "R15");
  EXPECT_EQ(result.violations[0].file, "src/util/stale.cpp");
  EXPECT_NE(result.violations[0].message.find("unused"), std::string::npos);
  EXPECT_EQ(result.stats.suppressions_used, 1u);
}

// ------------------------------------------------------- function index

std::vector<FunctionDef> index_source(std::string_view src) {
  FileContext ctx("src/util/t.cpp", scan_source(src));
  std::vector<Violation> sink;
  return index_functions(ctx, sink);
}

const FunctionDef* def_named(const std::vector<FunctionDef>& defs,
                             std::string_view qualified) {
  const auto it = std::find_if(defs.begin(), defs.end(), [&](const FunctionDef& d) {
    return d.qualified_name == qualified;
  });
  return it == defs.end() ? nullptr : &*it;
}

TEST(FunctionIndex, QualifiesMethodsAndOutOfLineDefinitions) {
  const auto defs = index_source(R"cpp(
namespace ns {
struct Widget {
  int inline_method(int v) { return v; }
};
int free_helper() { return 0; }
int Widget::out_of_line(int v) { return v; }
}  // namespace ns
int declared_only();
)cpp");
  EXPECT_NE(def_named(defs, "ns::Widget::inline_method"), nullptr);
  EXPECT_NE(def_named(defs, "ns::free_helper"), nullptr);
  EXPECT_NE(def_named(defs, "ns::Widget::out_of_line"), nullptr);
  EXPECT_EQ(def_named(defs, "declared_only"), nullptr);  // no body, no def
}

TEST(FunctionIndex, InitListMembersAreNotDefinitions) {
  const auto defs = index_source(R"cpp(
struct Widget {
 public:
  Widget() : count_(0), label_("w") {}
  int size_hint() { return count_; }
 private:
  int count_;
  const char* label_;
};
)cpp");
  // The ctor body must not be claimed by its init-list members...
  EXPECT_EQ(def_named(defs, "Widget::count_"), nullptr);
  EXPECT_EQ(def_named(defs, "Widget::label_"), nullptr);
  // ...while the ctor itself and a method right after an access
  // specifier both still index.
  EXPECT_NE(def_named(defs, "Widget::Widget"), nullptr);
  EXPECT_NE(def_named(defs, "Widget::size_hint"), nullptr);
}

TEST(FunctionIndex, TemplatesOperatorsAndLambdasIndex) {
  const auto defs = index_source(R"cpp(
template <typename T>
T twice(T value) { return value + value; }
struct Id { int v; };
bool operator==(const Id& a, const Id& b) { return a.v == b.v; }
int outer() {
  auto hop = [&] { return helper_call(); };
  return hop();
}
)cpp");
  EXPECT_NE(def_named(defs, "twice"), nullptr);
  const FunctionDef* eq = def_named(defs, "operator==");
  ASSERT_NE(eq, nullptr);
  EXPECT_TRUE(eq->returns_bool);
  // The lambda is not a definition: its call belongs to `outer`.
  const FunctionDef* outer = def_named(defs, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_TRUE(std::any_of(outer->calls.begin(), outer->calls.end(),
                          [](const CallSite& c) { return c.name == "helper_call"; }));
}

TEST(FunctionIndex, ControlFlowHeadsAreNotDefinitions) {
  const auto defs = index_source(R"cpp(
int use(const Opt& o) {
  if (o.has_value()) { return 1; }
  while (o.pending()) { break; }
  return 0;
}
)cpp");
  // `if (o.has_value()) {` must not index a definition named has_value
  // whose "body" is the if-block.
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs.front().qualified_name, "use");
}

TEST(CallGraph, StdVocabularyCallsAreNotLinked) {
  FunctionIndex index;
  std::vector<Violation> sink;
  const FileContext a("src/util/a.cpp", scan_source(R"cpp(
namespace m {
struct Model {
  bool load(int v) { return v > 0; }
};
void refresh_cache() {}
}  // namespace m
)cpp"));
  const FileContext b("src/util/b.cpp", scan_source(R"cpp(
namespace m {
void tick(Model& obj) {
  obj.load(1);
  refresh_cache();
}
}  // namespace m
)cpp"));
  index.add_file(a, 0, sink);
  index.add_file(b, 1, sink);
  const CallGraph graph(index);

  EXPECT_TRUE(CallGraph::ambiguous_vocabulary("load"));
  EXPECT_TRUE(CallGraph::ambiguous_vocabulary("push_back"));
  EXPECT_FALSE(CallGraph::ambiguous_vocabulary("refresh_cache"));

  const FunctionDef* tick = def_named(index.defs, "m::tick");
  ASSERT_NE(tick, nullptr);
  const std::size_t tick_id = static_cast<std::size_t>(tick - index.defs.data());
  // `obj.load(1)` is std vocabulary and stays unlinked; refresh_cache links.
  ASSERT_EQ(graph.edges_of(tick_id).size(), 1u);
  EXPECT_EQ(index.defs[graph.edges_of(tick_id).front().callee].qualified_name,
            "m::refresh_cache");
  // R21's relaxed resolution still sees the bool-returning load.
  const auto relaxed = graph.resolve({"load", 0, true}, false);
  ASSERT_EQ(relaxed.size(), 1u);
  EXPECT_EQ(index.defs[relaxed.front()].qualified_name, "m::Model::load");
}

// ------------------------------------------- whole-program rule fixtures

TEST(Fixtures, TransitiveHotAllocationReportedWithChain) {
  const LintResult result = lint_fixture("hot_chain");
  ASSERT_FALSE(result.config_error);
  ASSERT_EQ(count_rule(result.violations, "R18"), 1u);
  const auto it =
      std::find_if(result.violations.begin(), result.violations.end(),
                   [](const Violation& v) { return v.rule == "R18"; });
  // The allocation sits two calls below the hot root and the finding
  // carries the whole chain.
  EXPECT_NE(it->message.find("hot_root -> middle -> leaf_allocates"),
            std::string::npos);
  ASSERT_EQ(it->chain.size(), 4u);
  EXPECT_EQ(it->chain.front().note, "fix::hot_root (root)");
  EXPECT_EQ(it->chain.back().line, it->line);
  // The identical allocation behind MCB_HOT_PATH_BOUNDARY stays silent.
  EXPECT_FALSE(
      any_message_contains(result.violations, "R18", "hot_root_with_boundary"));
}

TEST(Fixtures, HotRootCalledByAnotherRootReportsItsOwnBodyOnce) {
  const LintResult result = lint_fixture("hot_root_calls_root");
  ASSERT_FALSE(result.config_error) << result.config_message;
  EXPECT_EQ(result.stats.hot_regions, 2u);
  EXPECT_EQ(count_rule(result.violations, "R10"), 1u);
  EXPECT_EQ(count_rule(result.violations, "R18"), 0u);
}

TEST(Fixtures, ReactorBlockingReportedAndBoundaryCuts) {
  const LintResult result = lint_fixture("reactor_block");
  ASSERT_EQ(count_rule(result.violations, "R19"), 1u);
  EXPECT_TRUE(any_message_contains(result.violations, "R19",
                                   "reactor_tick -> guarded_update"));
  // The same mutex behind MCB_REACTOR_BOUNDARY runs on the pool.
  EXPECT_FALSE(any_message_contains(result.violations, "R19", "locked_on_the_pool"));
  EXPECT_FALSE(any_message_contains(result.violations, "R19", "handle_event"));
}

TEST(Fixtures, LockOrderInversionReportedWithWitnesses) {
  const LintResult result = lint_fixture("lock_inversion");
  ASSERT_EQ(count_rule(result.violations, "R20"), 1u);
  const auto it =
      std::find_if(result.violations.begin(), result.violations.end(),
                   [](const Violation& v) { return v.rule == "R20"; });
  EXPECT_NE(it->message.find("fix::Store::index_mutex"), std::string::npos);
  EXPECT_NE(it->message.find("fix::Store::blob_mutex"), std::string::npos);
  EXPECT_NE(it->message.find("witnesses"), std::string::npos);
  // One hold→acquire witness pair per direction of the cycle.
  ASSERT_EQ(it->chain.size(), 4u);
}

TEST(Fixtures, DiscardedStatusBareAndUnbracedBodiesReported) {
  const LintResult result = lint_fixture("discarded_status");
  std::vector<std::size_t> lines;
  for (const Violation& v : result.violations) {
    if (v.rule != "R21") continue;
    EXPECT_NE(v.message.find("try_reserve_slot"), std::string::npos);
    lines.push_back(v.line);
  }
  std::sort(lines.begin(), lines.end());
  // The bare statement plus the if/else/for/while bodies; `(void)`,
  // `if (!...)` and a call inside a condition all count as handled.
  EXPECT_EQ(lines, (std::vector<std::size_t>{11, 19, 20, 21, 22}));
}

TEST(Fixtures, SignalMachineryConfinedToThePerfModule) {
  const LintResult result = lint_fixture("signal_confinement");
  ASSERT_FALSE(result.config_error);
  // src/core: sigaction + timer_create + backtrace, each confined.
  // src/obs/perf: backtrace_symbols inside the bad handler body. The
  // member call, the quoted spelling, and the machinery in arm() (the
  // owning module) all stay silent.
  EXPECT_EQ(count_rule(result.violations, "R22"), 4u);
  EXPECT_TRUE(any_message_contains(result.violations, "R22",
                                   "sigaction()` outside src/obs/perf"));
  EXPECT_TRUE(any_message_contains(result.violations, "R22",
                                   "timer_create()` outside src/obs/perf"));
  EXPECT_TRUE(any_message_contains(result.violations, "R22",
                                   "backtrace()` outside src/obs/perf"));
  for (const Violation& v : result.violations) {
    if (v.rule == "R22" && v.message.find("outside src/obs/perf") != std::string::npos) {
      EXPECT_EQ(v.file, "src/core/rogue_signals.cpp");
    }
  }
}

TEST(Fixtures, SignalHandlerBodyScanAndDeclarationMisuse) {
  const LintResult result = lint_fixture("signal_confinement");
  // bad_handler symbolizes in async-signal context; good_handler's
  // atomics + pre-warmed backtrace() pass clean.
  EXPECT_TRUE(any_message_contains(result.violations, "R22",
                                   "backtrace_symbols mallocs inside "
                                   "MCB_SIGNAL_HANDLER `bad_handler`"));
  EXPECT_FALSE(any_message_contains(result.violations, "R22", "good_handler"));
  // The marker on a declaration guards nothing (R16, shared grammar
  // with MCB_HOT_PATH).
  EXPECT_TRUE(any_message_contains(result.violations, "R16",
                                   "MCB_SIGNAL_HANDLER on a declaration of "
                                   "`declared_only`"));
  EXPECT_EQ(result.stats.signal_handlers, 2u);
}

TEST(Fixtures, DriverRecordsPassTimingsAndGraphStats) {
  const LintResult result = lint_fixture("hot_chain");
  EXPECT_GT(result.stats.functions_indexed, 0u);
  EXPECT_GT(result.stats.call_edges, 0u);
  const auto ran = [&](std::string_view name) {
    return std::any_of(result.stats.passes.begin(), result.stats.passes.end(),
                       [&](const PassTiming& p) { return p.name == name; });
  };
  EXPECT_TRUE(ran("load+tokenize"));
  EXPECT_TRUE(ran("function index"));
  EXPECT_TRUE(ran("call graph + R18-R21"));
  EXPECT_NE(result.call_graph_dot.find("digraph"), std::string::npos);
}

// ------------------------------------------------------- report back-ends

TEST(Report, TextRendersChainSubLines) {
  const LintResult result = lint_fixture("hot_chain");
  std::ostringstream text;
  print_text(text, result.violations);
  EXPECT_NE(text.str().find("    1. fix::hot_root (root) (src/util/chain.cpp:17)"),
            std::string::npos);
  EXPECT_NE(text.str().find("operator new allocates (R10)"), std::string::npos);
}

TEST(Report, SarifMatchesGoldenSnapshot) {
  const LintResult result = lint_fixture("hot_chain");
  std::ostringstream sarif;
  print_sarif(sarif, result.violations);
  std::ifstream golden(std::string(MCB_LINT_FIXTURE_DIR) +
                       "/hot_chain/expected.sarif");
  ASSERT_TRUE(golden.good());
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(sarif.str(), want.str());

  // The output is valid JSON, and the chained R18 result's codeFlow
  // carries every step of its chain.
  std::string error;
  const std::optional<mcb::Json> doc = mcb::Json::parse(sarif.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const mcb::JsonArray& runs = (*doc)["runs"].as_array();
  ASSERT_EQ(runs.size(), 1u);
  bool saw_chain = false;
  for (const mcb::Json& res : runs[0]["results"].as_array()) {
    if (res["ruleId"].as_string() != "R18") continue;
    const mcb::JsonArray& flows = res["codeFlows"].as_array();
    ASSERT_EQ(flows.size(), 1u);
    const mcb::JsonArray& threads = flows[0]["threadFlows"].as_array();
    ASSERT_EQ(threads.size(), 1u);
    EXPECT_EQ(threads[0]["locations"].size(), 4u);
    saw_chain = true;
  }
  EXPECT_TRUE(saw_chain);
}

TEST(Report, MarkdownCatalogCoversEveryRuleWithAnchors) {
  std::ostringstream md;
  print_rules_markdown(md);
  const std::string text = md.str();
  for (const RuleInfo& info : rule_catalog()) {
    EXPECT_NE(text.find("## " + std::string(info.id)), std::string::npos) << info.id;
  }
  EXPECT_EQ(rule_anchor("R18"), "#r18");
}

TEST(Fixtures, MissingManifestIsAConfigError) {
  // An empty path names no manifest: it must not turn R13 off.
  for (const std::string layers : {"no_such_layers.txt", ""}) {
    LintOptions options;
    options.root = std::string(MCB_LINT_FIXTURE_DIR) + "/suppression";
    options.layers_file = layers;
    const LintResult result = run_lint(options);
    EXPECT_TRUE(result.config_error) << "layers_file='" << layers << "'";
    EXPECT_NE(result.config_message.find("layer manifest not found"), std::string::npos);
    EXPECT_NE(result.config_message.find(layers), std::string::npos);
  }
}

}  // namespace
}  // namespace mcb::lint
