// Signal-safety pass (DESIGN.md §12/§14, rule R22).
//
// The sampling profiler (src/obs/perf/profiler.cpp) is the one place in
// the tree that installs a signal handler, and its correctness story is
// lexicalized here in two halves:
//
//   confinement  signal-machinery syscalls (sigaction, timer_create,
//                backtrace, ...) may only appear in src/obs/perf
//                translation units. A sigaction() creeping into the
//                server or a model would silently fight the profiler
//                for SIGPROF disposition; keeping the machinery in one
//                module keeps every disposition change reviewable.
//
//   handler body a function definition prefixed with MCB_SIGNAL_HANDLER
//                (src/util/annotations.hpp) runs in async-signal
//                context. The function index attaches the marker (R16
//                on a declaration), and each handler's body is scanned for
//                constructs POSIX does not allow there: allocation,
//                stdio, locks, throwing, and post-capture symbolization
//                (backtrace_symbols / dladdr / __cxa_demangle).
//                `backtrace()` itself is permitted — the profiler warms
//                its lazy libgcc initialization before arming the
//                timer, which is the documented contract the marker
//                asserts.
//
// Both halves are lexical, like R10–R12: the point is that a refactor
// cannot move a malloc into the handler, or the handler out of the
// audited module, without the analyzer noticing.
#pragma once

#include <vector>

#include "lint/diagnostics.hpp"
#include "lint/function_index.hpp"

namespace mcb::lint {

/// Confinement half: report every signal-machinery call in a file that
/// is not allowed to own it. The driver applies this to src/ files
/// outside src/obs/perf/.
void check_signal_machinery_confinement(const FileContext& ctx,
                                        std::vector<Violation>& out);

/// Handler-body half: report async-signal-unsafe constructs in the body
/// of every MCB_SIGNAL_HANDLER definition in the index.
void check_signal_handlers(const ContextTable& ctxs, const FunctionIndex& index,
                           std::vector<Violation>& out);

}  // namespace mcb::lint
