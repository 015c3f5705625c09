// Clang Thread Safety Analysis annotation macros (DESIGN.md §7,
// "Compile-time lock discipline").
//
// These wrap the `capability`-family attributes so every concurrent
// component in src/ can declare its locking contract — which mutex
// guards which field, which private methods require a held lock — and
// have the compiler prove the discipline on every Clang build
// (-DMCB_THREAD_SAFETY=ON adds -Wthread-safety -Werror=thread-safety).
// On GCC (and any compiler without the attributes) every macro expands
// to nothing, so the annotations are zero-cost documentation there.
//
// The annotated wrappers that carry these attributes live in
// util/sync.hpp (mcb::Mutex, the scoped MutexLock guard, mcb::CondVar);
// library code uses those, never raw std primitives (lint rule R6).
#pragma once

#if defined(__clang__)
#define MCB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MCB_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define MCB_CAPABILITY(x) MCB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability (lock objects like mcb::MutexLock).
#define MCB_SCOPED_CAPABILITY MCB_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define MCB_GUARDED_BY(x) MCB_THREAD_ANNOTATION(guarded_by(x))

/// Function requires the capability held exclusively on entry (and does
/// not release it).
#define MCB_REQUIRES(...) \
  MCB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on exit.
#define MCB_ACQUIRE(...) MCB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define MCB_RELEASE(...) MCB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; holds it iff the return value
/// equals the first macro argument.
#define MCB_TRY_ACQUIRE(...) \
  MCB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrant public APIs that
/// lock internally).
#define MCB_EXCLUDES(...) MCB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define MCB_RETURN_CAPABILITY(x) MCB_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Policy
/// (DESIGN.md §7): only for code the analysis cannot model — each use
/// carries a comment explaining why, and is reviewed like a cast.
#define MCB_NO_THREAD_SAFETY_ANALYSIS \
  MCB_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------
// Hot-path marker (DESIGN.md §12).
//
// Prefix a function *definition* with MCB_HOT_PATH to declare that its
// body is on the serving or inference fast path. The marker expands to
// nothing — it exists for mcbound_lint, whose hot-path pass
// brace-matches the annotated body and enforces that it stays
// allocation-free (R10), non-throwing and non-blocking (R11), and
// lock-free (R12). Exceptions need an adjacent suppression comment with
// a reason; the marker on a bare declaration is itself an error (R16),
// so an annotation can never silently guard nothing.
#define MCB_HOT_PATH

// ---------------------------------------------------------------------
// Call-graph boundary markers (DESIGN.md §13).
//
// mcbound_lint's whole-program pass propagates obligations *through*
// the call graph: R18 carries the hot-path discipline from every
// MCB_HOT_PATH root into everything it transitively calls, and R19
// carries the reactor's never-blocking contract from reactor_tick /
// handle_event downward. A boundary marker is the author's signed
// assertion that the obligation is discharged at this function by
// construction, so the traversal stops here and does not descend into
// its body or callees. Like MCB_HOT_PATH, both markers expand to
// nothing, must sit on a *definition* (R16 otherwise), and each use
// carries an adjacent comment stating why the assertion holds — a
// boundary without a reason is a reviewer's cue to push back.

/// Cuts R18 (transitive hot-path discipline): the annotated function is
/// a deliberate exit from the fast path — a cold fallback, a bounded
/// per-connection setup, an error path — whose allocations/locks are
/// acceptable by design even though a hot root can reach it.
#define MCB_HOT_PATH_BOUNDARY

/// Cuts R19 (reactor blocking-reachability): the annotated function
/// either runs on the handler pool side of the completion-queue
/// boundary (never on the reactor thread) or performs I/O that cannot
/// block by construction (non-blocking fds, uncontended bounded locks).
#define MCB_REACTOR_BOUNDARY

// ---------------------------------------------------------------------
// Signal-handler marker (DESIGN.md §14).
//
// Prefix a function *definition* with MCB_SIGNAL_HANDLER to declare
// that it runs in signal context. The marker expands to nothing — it
// exists for mcbound_lint rule R22, which brace-matches the annotated
// body and bans async-signal-unsafe constructs there (allocation,
// stdio, locks, symbolization). `backtrace()` itself is permitted: the
// profiler warms it before arming the timer so its one-time lazy
// libgcc load cannot happen in signal context (DESIGN.md §14).
#define MCB_SIGNAL_HANDLER
