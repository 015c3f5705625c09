#include "lint/diagnostics.hpp"

#include <algorithm>

namespace mcb::lint {

const std::vector<RuleInfo>& rule_catalog() {
  // The suppression-comment marker is spelled in two halves below so the
  // analyzer's own scan of this file never registers a live suppression.
  static const std::vector<RuleInfo> kCatalog = {
      {"R1", "no wall-clock or libc randomness in library code",
       "error",
       "Library code that reads the wall clock or libc randomness is "
       "unreproducible: the same trace classified twice gives two answers. "
       "Clocks and seeds are injected at the edges (CLI, server startup) "
       "and passed down.",
       "double jitter = rand() / double(RAND_MAX);  // in src/ml",
       "Thread a seed or clock through the call site. For genuinely "
       "edge-level code, add an inline suppression naming why the "
       "nondeterminism cannot escape into results."},
      {"R2", "no naked new/delete",
       "error",
       "Raw new/delete leaks on every early return and exception path. "
       "All ownership in this codebase flows through containers and "
       "unique_ptr.",
       "auto* conn = new Connection(fd);",
       "Use std::make_unique / a container. Placement-new in an arena "
       "implementation may be suppressed with a reason naming the arena."},
      {"R3", "no catch-all that swallows the exception",
       "error",
       "A `catch (...)` with an empty body hides the first report of "
       "every bug behind it. Catch-alls must rethrow, log, or convert to "
       "a status the caller can see.",
       "try { step(); } catch (...) {}",
       "Narrow the catch or surface the failure. A deliberate "
       "crash-shield at a thread boundary may be suppressed with a "
       "reason naming where the error is reported instead."},
      {"R6", "no raw std synchronization primitives outside util/sync",
       "error",
       "std::mutex carries no Clang thread-safety capability; the "
       "mcb::Mutex wrappers (src/util/sync.hpp) do, which is what lets "
       "the tsa CI leg and rule R20 reason about lock order.",
       "std::mutex mu_;  // in src/serve",
       "Use mcb::Mutex / mcb::MutexLock. Only util/sync itself may "
       "touch the std primitives it wraps."},
      {"R7", "no std::thread::detach()",
       "error",
       "A detached thread outlives every sanitizer's idea of the "
       "program and turns shutdown into a race. All threads in this "
       "codebase are joined by an owner.",
       "std::thread(worker).detach();",
       "Keep the handle and join it at shutdown (see ThreadPool). No "
       "suppression is accepted."},
      {"R8", "memory_order_relaxed carries an adjacent justification comment",
       "error",
       "Relaxed atomics are correct only under an argument about which "
       "orderings do not matter; that argument must sit next to the "
       "code, or the next editor strengthens or weakens it blindly.",
       "counter_.fetch_add(1, std::memory_order_relaxed);",
       "Write the one-line argument in a comment on the same or the "
       "previous line (the word `relaxed` plus why reordering is safe)."},
      {"R9", "no direct stdout/stderr writes outside src/obs and util/cli",
       "error",
       "Classifier output is machine-read (JSON, CSV, SARIF); a stray "
       "printf corrupts the stream. All human-facing text goes through "
       "the obs sinks or the CLI layer.",
       "std::cerr << \"debug\\n\";  // in src/ml",
       "Route through mcb::obs logging. Tools under tools/ may write "
       "directly; library code may not."},
      {"R10", "no heap allocation inside MCB_HOT_PATH bodies",
       "error",
       "The serving and inference fast paths are budgeted in "
       "nanoseconds; an allocation is an unbounded detour through the "
       "allocator plus a future cache miss. Hot bodies reuse warm "
       "buffers owned by the caller.",
       "MCB_HOT_PATH void tick() { scratch.push_back(x); }",
       "Hoist the allocation to setup code and reuse the buffer. A "
       "bounded, amortized growth may be excused with "
       "`// mcb-lint: ` + `suppress(R10: <why bounded>)` on the line "
       "above, or on the signature to cover the whole body."},
      {"R11", "no throw or blocking call inside MCB_HOT_PATH bodies",
       "error",
       "A throw unwinds the fast path; a blocking syscall parks the "
       "reactor thread behind kernel scheduling. Hot code reports "
       "failure through return values and never waits.",
       "MCB_HOT_PATH void tick() { if (bad) throw Error{}; }",
       "Return a status instead of throwing; make the syscall "
       "non-blocking and handle EAGAIN. Suppress only for calls proven "
       "non-blocking on this platform, with the proof in the reason."},
      {"R12", "no lock acquisition inside MCB_HOT_PATH bodies",
       "error",
       "A contended mutex turns one slow reader into a convoy of "
       "stalled hot iterations. Synchronization moves to the caller, to "
       "sharding, or to lock-free handoff.",
       "MCB_HOT_PATH void tick() { MutexLock l(mu_); }",
       "Shift the lock to the enqueue/drain edges (see the completion "
       "queue). Suppress only with a measured argument that the lock is "
       "uncontended and bounded."},
      {"R13", "module includes respect the layering manifest (layers.txt)",
       "error",
       "The layer order (util < data/text/ml/obs < roofline < "
       "core/workload/sched < serve) is what keeps the classifier "
       "embeddable without the server. An upward include is an "
       "architectural regression even when it compiles.",
       "#include \"serve/server.hpp\"  // from src/ml",
       "Invert the dependency (callback, interface in a lower layer) or "
       "move the code. There is no suppression: one include site cannot "
       "excuse a cross-file property."},
      {"R14", "no include cycles under src/",
       "error",
       "An include cycle means neither file can be understood, tested, "
       "or replaced alone; builds get order-dependent.",
       "a.hpp includes b.hpp includes a.hpp",
       "Break the cycle with a forward declaration or by extracting the "
       "shared piece downward. No suppression, as for R13."},
      {"R15", "suppressions must be well-formed and used",
       "error",
       "A suppression that no longer matches anything is a stale "
       "license to regress; a malformed one silently suppresses "
       "nothing. Hygiene violations keep the exception ledger honest.",
       "// mcb-lint comment with suppress(R10) and no reason",
       "Delete stale suppressions; give every remaining one a reason. "
       "There is no suppression for R15."},
      {"R16", "annotation markers attach to definitions, not declarations",
       "error",
       "MCB_HOT_PATH and the boundary markers assert facts about a "
       "*body*; on a declaration they guard nothing while looking like "
       "they do, which is worse than their absence.",
       "MCB_HOT_PATH void tick();  // header declaration",
       "Move the marker to the definition in the .cpp file."},
      {"R17", "socket syscalls in src/serve stay confined to the reactor file",
       "error",
       "Exactly one file owns the fd lifecycle and epoll registration; "
       "a socket call elsewhere bypasses connection accounting and the "
       "graceful-drain logic.",
       "::send(fd, buf, n, 0);  // in http.cpp",
       "Route through the server's connection helpers. New transport "
       "code belongs in the reactor file."},
      {"R18", "no hot-path discipline violation reachable from an MCB_HOT_PATH root",
       "error",
       "R10–R12 freeze the *direct* body of a hot function, but an "
       "allocation two calls down stalls the fast path just as surely. "
       "R18 walks the cross-TU call graph from every MCB_HOT_PATH root "
       "and reports banned constructs in any function reachable from "
       "one, with the full root-to-leaf call chain.",
       "MCB_HOT_PATH void tick() { helper(); }\n"
       "void helper() { buf.push_back(x); }  // R18: tick -> helper",
       "Fix the callee, or — where the call provably leaves the fast "
       "path (handoff, cold error branch) — annotate the callee "
       "MCB_HOT_PATH_BOUNDARY with an adjacent comment saying why "
       "traversal may stop there. Leaf-site suppressions use "
       "`// mcb-lint: ` + `suppress(R18: <reason>)`."},
      {"R19", "no blocking primitive reachable from the reactor roots",
       "error",
       "The epoll reactor thread serves every connection; one blocking "
       "call anywhere under reactor_tick/handle_event stalls them all. "
       "R19 walks the call graph from the reactor roots and reports "
       "mutex waits, condvar waits, blocking syscalls and thread-pool "
       "parking, with the full call chain.",
       "void handle_event(..) { drain(); }\n"
       "void drain() { MutexLock l(mu_); }  // R19: handle_event -> drain",
       "Make the callee non-blocking, or annotate the function where "
       "work provably leaves the reactor thread (e.g. the pool side of "
       "a completion queue) MCB_REACTOR_BOUNDARY with a comment naming "
       "the handoff. Leaf-site suppressions use "
       "`// mcb-lint: ` + `suppress(R19: <reason>)` — e.g. for a mutex "
       "that is only ever touched by the reactor thread itself."},
      {"R20", "the static lock-order graph is cycle-free",
       "error",
       "Two threads acquiring the same two mutexes in opposite orders "
       "is a deadlock waiting for load. R20 builds a lock-order graph "
       "from scoped-lock sites, MCB_ACQUIRE/MCB_REQUIRES annotations "
       "and call edges, and reports every cycle with two witness "
       "chains — one per conflicting order.",
       "void a() { MutexLock l(mu1_); MutexLock m(mu2_); }\n"
       "void b() { MutexLock l(mu2_); MutexLock m(mu1_); }",
       "Pick one global order and restructure the second site (release "
       "before acquiring, or merge the critical sections). False "
       "cycles from same-named mutexes in unrelated classes do not "
       "occur — capabilities are class-qualified. There is no "
       "suppression: a cycle has no single excusable line."},
      {"R21", "bool/status results of repo functions must not be discarded",
       "error",
       "`model.load(path);` that quietly fails leaves the server "
       "classifying with a stale model. Every repo function returning "
       "bool is a status; a statement-position call that drops it "
       "discards a failure, whether it stands alone or is the whole "
       "body of an unbraced if/else/for/while.",
       "if (stale) index.load(path);  // R21: result discarded",
       "Check the result, or make the intent explicit with "
       "`(void) index.load(path);` plus a comment. Inline suppression: "
       "`// mcb-lint: ` + `suppress(R21: <why failure is impossible>)`."},
      {"R22", "signal machinery and handler bodies stay async-signal-safe",
       "error",
       "The sampling profiler (src/obs/perf) is the only code allowed to "
       "install signal dispositions, arm profiling timers or walk stacks "
       "— a sigaction() elsewhere silently fights it for SIGPROF. And a "
       "function marked MCB_SIGNAL_HANDLER runs in async-signal context, "
       "where POSIX permits almost nothing: allocation deadlocks against "
       "the allocator lock the interrupted thread may hold, stdio takes "
       "libc-internal locks, dladdr takes the loader lock, throwing "
       "across a signal frame is undefined. Handler bodies may touch "
       "atomics, fixed storage, and backtrace() — which the profiler "
       "warms before arming the timer, making its lazy initialization "
       "safe by construction.",
       "MCB_SIGNAL_HANDLER void on_prof(int) {\n"
       "  names = backtrace_symbols(frames, n);  // mallocs in a handler\n"
       "}",
       "Move signal machinery into src/obs/perf; move allocation, stdio, "
       "locks and symbolization out of the handler into the post-capture "
       "aggregation path. A construct proven safe on this platform may "
       "be excused with `// mcb-lint: ` + `suppress(R22: <proof>)` on "
       "the annotated signature to cover the body."},
  };
  return kCatalog;
}

bool known_rule(std::string_view rule) {
  const auto& catalog = rule_catalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const RuleInfo& info) { return info.id == rule; });
}

std::vector<Suppression> parse_suppressions(const SourceView& view) {
  static constexpr std::string_view kMarker = "mcb-lint:";
  static constexpr std::string_view kVerb = "suppress";
  std::vector<Suppression> out;
  const std::string_view comments = view.comments;
  LineIndex lines(view.raw);
  for (std::size_t pos = comments.find(kMarker); pos != std::string_view::npos;
       pos = comments.find(kMarker, pos + kMarker.size())) {
    Suppression s;
    s.line = lines.line_of(pos);
    std::size_t i = next_nonspace(comments, pos + kMarker.size());
    const auto malformed = [&]() {
      s.malformed = true;
      out.push_back(s);
    };
    if (i == std::string_view::npos ||
        comments.compare(i, kVerb.size(), kVerb) != 0) {
      malformed();
      continue;
    }
    i = next_nonspace(comments, i + kVerb.size());
    if (i == std::string_view::npos || comments[i] != '(') {
      malformed();
      continue;
    }
    const std::size_t eol = comments.find('\n', pos);
    const std::size_t colon = comments.find(':', i);
    const std::size_t close = comments.find(')', i);
    // The reason must be present and the whole form must close on the
    // comment's own line; a bare `suppress(R10)` is malformed.
    if (colon == std::string_view::npos || close == std::string_view::npos ||
        colon > close || close > eol) {
      malformed();
      continue;
    }
    std::string rule(comments.substr(i + 1, colon - i - 1));
    std::erase_if(rule, [](char c) { return c == ' ' || c == '\t'; });
    std::string reason(comments.substr(colon + 1, close - colon - 1));
    while (!reason.empty() && (reason.front() == ' ' || reason.front() == '\t')) {
      reason.erase(reason.begin());
    }
    while (!reason.empty() && (reason.back() == ' ' || reason.back() == '\t')) {
      reason.pop_back();
    }
    if (!known_rule(rule) || reason.empty()) {
      malformed();
      continue;
    }
    s.rule = std::move(rule);
    s.reason = std::move(reason);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mcb::lint
