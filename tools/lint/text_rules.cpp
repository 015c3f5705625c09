#include "lint/text_rules.hpp"

#include <string>
#include <string_view>

namespace mcb::lint {

// ------------------------------------------------------------------- R1
void check_no_wallclock_or_libc_rand(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  static constexpr std::string_view kBanned[] = {"rand", "srand", "rand_r",
                                                 "random_shuffle", "clock"};
  for (const auto word : kBanned) {
    for (std::size_t pos = find_word(code, word, 0); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      if (!call_like(code, pos, word.size())) continue;
      ctx.add(pos, "R1",
              "libc `" + std::string(word) +
                  "()` in library code — thread an explicit mcb::Rng / seed instead",
              out);
    }
  }
  // `time(...)` — match bare or std:: qualified, not member calls.
  for (std::size_t pos = find_word(code, "time", 0); pos != std::string_view::npos;
       pos = find_word(code, "time", pos + 1)) {
    if (pos + 4 >= code.size() || code[pos + 4] != '(') continue;
    const char before = pos > 0 ? code[pos - 1] : '\0';
    if (before == '.' || before == '>') continue;
    ctx.add(pos, "R1",
            "wall-clock `time()` in library code — accept a TimePoint parameter instead",
            out);
  }
}

// ------------------------------------------------------------------- R2
void check_no_naked_new_delete(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  for (std::size_t pos = find_word(code, "new", 0); pos != std::string_view::npos;
       pos = find_word(code, "new", pos + 1)) {
    ctx.add(pos, "R2", "naked `new` — use containers, std::make_unique or std::make_shared",
            out);
  }
  for (std::size_t pos = find_word(code, "delete", 0); pos != std::string_view::npos;
       pos = find_word(code, "delete", pos + 1)) {
    if (prev_nonspace(code, pos) == '=') continue;  // `= delete;` declaration
    ctx.add(pos, "R2", "naked `delete` — ownership must be RAII-managed", out);
  }
}

// ------------------------------------------------------------------- R3
void check_no_swallowing_catch_all(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  for (std::size_t pos = code.find("catch", 0); pos != std::string_view::npos;
       pos = code.find("catch", pos + 5)) {
    if (pos > 0 && is_ident_char(code[pos - 1])) continue;
    const std::size_t open = next_nonspace(code, pos + 5);
    if (open == std::string_view::npos || code[open] != '(') continue;
    const std::size_t close = code.find(')', open);
    if (close == std::string_view::npos) continue;
    std::string inside(code.substr(open + 1, close - open - 1));
    std::erase_if(inside, [](char c) { return c == ' ' || c == '\t' || c == '\n'; });
    if (inside != "...") continue;  // named handler: fine
    const std::size_t brace = code.find('{', close);
    if (brace == std::string_view::npos) continue;
    int depth = 0;
    std::size_t end = brace;
    for (; end < code.size(); ++end) {
      if (code[end] == '{') ++depth;
      if (code[end] == '}' && --depth == 0) break;
    }
    const std::string_view body = code.substr(brace, end - brace);
    static constexpr std::string_view kEvidence[] = {
        "throw",  "rethrow",  "current_exception", "log",
        "cerr",   "fprintf",  "perror",            "abort",
        "assert", "terminate"};
    bool handled = false;
    for (const auto token : kEvidence) {
      if (find_word(body, token, 0) != std::string_view::npos) {
        handled = true;
        break;
      }
    }
    if (!handled) {
      ctx.add(pos, "R3", "`catch (...)` swallows the exception — rethrow, capture or log it",
              out);
    }
  }
}

// ------------------------------------------------------------------- R6
void check_no_raw_std_sync(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  static constexpr std::string_view kBanned[] = {
      "mutex",       "shared_mutex",          "recursive_mutex",
      "timed_mutex", "recursive_timed_mutex", "lock_guard",
      "unique_lock", "scoped_lock",           "shared_lock",
      "condition_variable", "condition_variable_any"};
  for (const auto word : kBanned) {
    for (std::size_t pos = find_word(code, word, 0); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      if (pos < 5 || code.substr(pos - 5, 5) != "std::") continue;
      ctx.add(pos, "R6",
              "raw `std::" + std::string(word) +
                  "` — lock through the annotated wrappers in util/sync.hpp "
                  "so the thread-safety analysis sees it",
              out);
    }
  }
}

// ------------------------------------------------------------------- R7
void check_no_thread_detach(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  for (std::size_t pos = find_word(code, "detach", 0); pos != std::string_view::npos;
       pos = find_word(code, "detach", pos + 1)) {
    const char before = prev_nonspace(code, pos);
    if (before != '.' && before != '>') continue;  // member call only
    if (!call_like(code, pos, 6)) continue;
    ctx.add(pos, "R7", "`detach()` orphans the thread past shutdown — join it instead", out);
  }
}

// ------------------------------------------------------------------- R8
// The construct is matched in the code view (a string literal spelling
// `memory_order_relaxed` is not an atomic operation) and the
// justification in the comments view (a string literal containing
// `relaxed:` is not a justification).
void check_relaxed_order_justified(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  const std::string_view comments = ctx.view.comments;
  for (std::size_t pos = find_word(code, "memory_order_relaxed", 0);
       pos != std::string_view::npos;
       pos = find_word(code, "memory_order_relaxed", pos + 1)) {
    const std::size_t line = ctx.lines.line_of(pos);
    bool justified = false;
    for (std::size_t back = 0; back <= 2 && back < line; ++back) {
      const std::string_view comment_line = ctx.lines.line(comments, line - back);
      if (comment_line.find("relaxed:") != std::string_view::npos) {
        justified = true;
        break;
      }
    }
    if (!justified) {
      ctx.add(pos, "R8",
              "memory_order_relaxed without an adjacent `// relaxed: <why>` justification",
              out);
    }
  }
}

// ------------------------------------------------------------------- R9
void check_no_direct_stream_writes(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  static constexpr std::string_view kStreams[] = {"cout", "cerr", "clog"};
  for (const auto word : kStreams) {
    for (std::size_t pos = find_word(code, word, 0); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      if (pos < 5 || code.substr(pos - 5, 5) != "std::") continue;
      ctx.add(pos, "R9",
              "direct `std::" + std::string(word) +
                  "` write in library code — log through mcb::log instead",
              out);
    }
  }
  static constexpr std::string_view kBannedCalls[] = {
      "printf", "fprintf", "vprintf", "vfprintf", "puts", "fputs", "fputc",
      "putchar", "perror"};
  for (const auto word : kBannedCalls) {
    for (std::size_t pos = find_word(code, word, 0); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      if (!call_like(code, pos, word.size())) continue;
      ctx.add(pos, "R9",
              "`" + std::string(word) +
                  "()` writes to a process stream from library code — log "
                  "through mcb::log instead",
              out);
    }
  }
}

// ------------------------------------------------------------------ R17
// The serving module's concurrency story depends on every socket syscall
// living in the reactor file (src/serve/server.cpp), where non-blocking
// setup, partial-I/O resumption and timer-wheel deadlines are enforced
// in one place. A recv()/send() creeping into a handler or the HTTP
// layer reintroduces blocking I/O the reactor cannot see. The driver
// applies this only to src/serve files other than the designated
// reactor file.
void check_reactor_syscall_confinement(const FileContext& ctx, std::vector<Violation>& out) {
  const std::string_view code = ctx.view.code;
  static constexpr std::string_view kSyscalls[] = {
      "accept", "accept4", "recv",   "recvfrom", "recvmsg",
      "send",   "sendto",  "sendmsg", "connect",  "listen",
      "bind",   "poll",    "select",  "epoll_wait", "epoll_ctl",
      "socket", "shutdown"};
  for (const auto word : kSyscalls) {
    for (std::size_t pos = find_word(code, word, 0); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      if (!call_like(code, pos, word.size())) continue;
      const char before = prev_nonspace(code, pos);
      if (before == '.' || before == '>') continue;  // member call, not a syscall
      ctx.add(pos, "R17",
              "socket syscall `" + std::string(word) +
                  "()` outside the reactor — all socket I/O in src/serve lives in "
                  "server.cpp so blocking behavior stays impossible by construction",
              out);
    }
  }
}

}  // namespace mcb::lint
