// Whole-program rules of mcbound_lint (DESIGN.md §13, rules R10–R12 and
// R18–R21).
//
// All four rules consume the cross-TU function index and call graph:
//
//  * R10–R12 / R18 — hot-path discipline, one walk from every
//    MCB_HOT_PATH root that visits each function once. An R10/R11/R12
//    construct in a root's own body keeps its rule id; one in a
//    function reachable from a root is R18, reported with the full
//    root→leaf call chain. Traversal stops at functions marked
//    MCB_HOT_PATH_BOUNDARY.
//  * R19 — reactor blocking-reachability: blocking primitives (mutex
//    waits, condvar waits, blocking syscalls, thread-pool parking)
//    reachable from the reactor roots `reactor_tick` / `handle_event`
//    without crossing MCB_REACTOR_BOUNDARY.
//  * R20 — static lock-order cycles: a lock-order graph built from
//    scoped-lock sites, MCB_REQUIRES/MCB_ACQUIRE annotations and call
//    edges, class-qualified capability names, cycles reported with one
//    witness chain per conflicting order. Never suppressible, like
//    R13/R14.
//  * R21 — discarded status results: statement-position calls to repo
//    functions that (for every same-named definition) return bool,
//    with `(void)` casts and used results recognized as negatives.
#pragma once

#include <vector>

#include "lint/call_graph.hpp"
#include "lint/diagnostics.hpp"
#include "lint/function_index.hpp"

namespace mcb::lint {

void check_transitive_hot(const ContextTable& ctxs, const CallGraph& graph,
                          std::vector<Violation>& out);

void check_reactor_blocking(const ContextTable& ctxs, const CallGraph& graph,
                            std::vector<Violation>& out);

void check_lock_order(const ContextTable& ctxs, const CallGraph& graph,
                      std::vector<Violation>& out);

void check_discarded_status(const ContextTable& ctxs, const CallGraph& graph,
                            std::vector<Violation>& out);

}  // namespace mcb::lint
