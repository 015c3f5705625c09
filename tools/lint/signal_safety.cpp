#include "lint/signal_safety.hpp"

#include <string>
#include <string_view>

namespace mcb::lint {

namespace {

// The machinery that changes process-wide signal state or walks stacks.
// `backtrace` is listed here (confinement half) even though handler
// bodies may call it: the *warm-up contract* lives in src/obs/perf, so
// a stray backtrace() elsewhere is still a confinement break.
constexpr std::string_view kMachinery[] = {
    "signal",          "sigaction",       "sigemptyset",
    "sigaddset",       "sigfillset",      "sigprocmask",
    "pthread_sigmask", "timer_create",    "timer_settime",
    "timer_delete",    "setitimer",       "getitimer",
    "backtrace",       "backtrace_symbols", "backtrace_symbols_fd"};

/// One construct banned inside an MCB_SIGNAL_HANDLER body. The shape
/// mirrors the hot-path TokenRule set but the policy is POSIX
/// async-signal-safety, not latency: abort()/_exit() are fine here (and
/// banned nowhere), while a perfectly fast snprintf is not.
struct HandlerRule {
  std::string_view word;
  const char* what;
  bool member_only;  ///< require a preceding '.' or '->'
  bool call_only;    ///< require a following '('
};

constexpr HandlerRule kHandlerRules[] = {
    // Allocation: the allocator's internal lock deadlocks against the
    // interrupted thread holding it.
    {"malloc", "malloc is not async-signal-safe", false, true},
    {"calloc", "calloc is not async-signal-safe", false, true},
    {"realloc", "realloc is not async-signal-safe", false, true},
    {"free", "free is not async-signal-safe", false, true},
    {"strdup", "strdup allocates", false, true},
    {"new", "operator new allocates", false, false},
    {"make_unique", "make_unique allocates", false, false},
    {"make_shared", "make_shared allocates", false, false},
    {"to_string", "to_string builds a heap string", false, true},
    {"push_back", "container growth allocates", true, true},
    {"emplace_back", "container growth allocates", true, true},
    {"insert", "container growth allocates", true, true},
    {"resize", "resize may allocate", true, true},
    {"reserve", "reserve allocates", true, true},
    {"append", "string growth allocates", true, true},
    // Stdio: buffered streams take libc-internal locks.
    {"printf", "stdio takes libc-internal locks", false, true},
    {"fprintf", "stdio takes libc-internal locks", false, true},
    {"snprintf", "snprintf may malloc for wide conversions", false, true},
    {"sprintf", "stdio takes libc-internal locks", false, true},
    {"puts", "stdio takes libc-internal locks", false, true},
    {"fputs", "stdio takes libc-internal locks", false, true},
    {"fwrite", "stdio takes libc-internal locks", false, true},
    {"fflush", "stdio takes libc-internal locks", false, true},
    {"perror", "stdio takes libc-internal locks", false, true},
    // Locks: the interrupted thread may already hold them.
    {"MutexLock", "acquiring a mutex can self-deadlock", false, false},
    {"lock_guard", "acquiring a mutex can self-deadlock", false, false},
    {"unique_lock", "acquiring a mutex can self-deadlock", false, false},
    {"scoped_lock", "acquiring a mutex can self-deadlock", false, false},
    {"lock", "acquiring a lock can self-deadlock", true, true},
    // Unwinding and process teardown.
    {"throw", "throwing across a signal frame is undefined", false, false},
    {"exit", "exit runs atexit handlers that may lock", false, true},
    // Symbolization is post-capture work: dladdr walks the loader's
    // link map under its lock, demangling allocates.
    {"backtrace_symbols", "backtrace_symbols mallocs", false, true},
    {"backtrace_symbols_fd", "symbolization belongs after capture", false, true},
    {"dladdr", "dladdr takes the loader lock", false, true},
    {"__cxa_demangle", "demangling allocates", false, true},
};

}  // namespace

void check_signal_machinery_confinement(const FileContext& ctx,
                                        std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  for (const auto word : kMachinery) {
    for (std::size_t pos = find_word(code, word, 0); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      if (!call_like(code, pos, word.size())) continue;
      const char before = prev_nonspace(code, pos);
      if (before == '.' || before == '>') continue;  // member call, not the libc symbol
      ctx.add(pos, "R22",
              "signal machinery `" + std::string(word) +
                  "()` outside src/obs/perf — signal dispositions, profiling "
                  "timers and stack walking live in the profiler module so "
                  "nothing else can fight it for SIGPROF",
              out);
    }
  }
}

void check_signal_handlers(const ContextTable& ctxs, const FunctionIndex& index,
                           std::vector<Violation>& out) {
  for (const FunctionDef& def : index.defs) {
    if (!def.signal_handler) continue;
    const FileContext& ctx = *ctxs[def.file_ctx];
    const std::string_view code = ctx.view.code;
    const std::string_view body =
        code.substr(def.body_begin, def.body_end - def.body_begin + 1);
    for (const HandlerRule& rule : kHandlerRules) {
      for (std::size_t pos = find_word(body, rule.word, 0);
           pos != std::string_view::npos;
           pos = find_word(body, rule.word, pos + 1)) {
        if (rule.call_only && !call_like(body, pos, rule.word.size())) continue;
        if (rule.member_only) {
          const char before = prev_nonspace(body, pos);
          if (before != '.' && before != '>') continue;
        }
        ctx.add(def.body_begin + pos, "R22",
                std::string(rule.what) + " inside MCB_SIGNAL_HANDLER `" + def.name +
                    "` — async-signal context allows only atomics, "
                    "pre-warmed backtrace() and writes to fixed storage",
                out);
      }
    }
  }
}

}  // namespace mcb::lint
