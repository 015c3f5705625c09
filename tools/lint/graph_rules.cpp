#include "lint/graph_rules.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "lint/hot_path.hpp"
#include "lint/source_view.hpp"

namespace mcb::lint {

namespace {

std::size_t line_of(const ContextTable& ctxs, const FunctionDef& def,
                    std::size_t pos) {
  return ctxs[def.file_ctx]->lines.line_of(pos);
}

std::string_view body_of(const ContextTable& ctxs, const FunctionDef& def) {
  const std::string_view code = ctxs[def.file_ctx]->view.code;
  return code.substr(def.body_begin, def.body_end - def.body_begin + 1);
}

/// Whether the statement starting at `begin` discards its value: it
/// follows ';', '{' or '}' (or opens the text), or it is the whole body
/// of an unbraced `if (...)`, `else`, `for (...)` or `while (...)`.
bool at_statement_start(std::string_view code, std::size_t begin) {
  std::size_t end = begin;
  while (end > 0 && std::isspace(static_cast<unsigned char>(code[end - 1])) != 0) --end;
  if (end == 0) return true;
  const char before = code[end - 1];
  if (before == ';' || before == '{' || before == '}') return true;
  if (before == ')') {
    // Walk back to the matching '(' and read the keyword in front of it.
    int depth = 0;
    do {
      --end;
      if (code[end] == ')') ++depth;
      if (code[end] == '(') --depth;
    } while (depth > 0 && end > 0);
    if (depth != 0) return false;
    while (end > 0 && std::isspace(static_cast<unsigned char>(code[end - 1])) != 0) --end;
  }
  std::size_t word = end;
  while (word > 0 && is_ident_char(code[word - 1])) --word;
  const std::string_view keyword = code.substr(word, end - word);
  if (before == ')') return keyword == "if" || keyword == "for" || keyword == "while";
  return keyword == "else";
}

/// Root→def call chain rendered two ways: structured steps (each call
/// anchored at the call site in its caller) for SARIF codeFlows, and a
/// compact `a -> b -> c` text for the one-line message.
struct RenderedChain {
  std::vector<ChainStep> steps;
  std::string text;
  std::string root;  ///< qualified name of the chain's root
};

RenderedChain render_chain(const ContextTable& ctxs, const CallGraph& graph,
                           const CallGraph::Reach& reach, std::size_t leaf) {
  RenderedChain out;
  const std::vector<CallGraph::Step> steps = graph.chain_to(reach, leaf);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const FunctionDef& def = graph.index().defs[steps[i].def];
    if (i == 0) {
      out.root = def.qualified_name;
      out.steps.push_back({def.file, line_of(ctxs, def, def.name_pos),
                           def.qualified_name + " (root)"});
    } else {
      const FunctionDef& caller = graph.index().defs[steps[i - 1].def];
      out.steps.push_back({caller.file, line_of(ctxs, caller, steps[i].call_pos),
                           "calls " + def.qualified_name});
    }
    if (!out.text.empty()) out.text += " -> ";
    out.text += def.last_name();
  }
  return out;
}

// ------------------------------------------------------ R10-R12, R18

void hot_hits(const ContextTable& ctxs, const CallGraph& graph,
              const CallGraph::Reach& reach, std::size_t d,
              std::vector<Violation>& out) {
  const FunctionDef& def = graph.index().defs[d];
  const std::string_view body = body_of(ctxs, def);
  const std::vector<TokenHit> hits = scan_hot_tokens(body);
  if (hits.empty()) return;
  if (reach.parent[d] == CallGraph::Reach::kRoot) {
    // The root's own body: the direct rule, no chain.
    for (const TokenHit& hit : hits) {
      const std::string_view rule = hit.rule->rule;
      ctxs[def.file_ctx]->add(
          def.body_begin + hit.pos, std::string(rule),
          std::string(hit.rule->what) + " inside MCB_HOT_PATH function `" +
              def.name + "` — hot paths must stay " +
              (rule == "R10"   ? "allocation-free (reuse warm buffers)"
               : rule == "R11" ? "non-blocking and non-throwing"
                               : "lock-free (shift synchronization to the caller or shard it)"),
          out);
    }
    return;
  }
  const RenderedChain chain = render_chain(ctxs, graph, reach, d);
  for (const TokenHit& hit : hits) {
    const std::size_t pos = def.body_begin + hit.pos;
    Violation v;
    v.file = def.file;
    v.line = line_of(ctxs, def, pos);
    v.rule = "R18";
    v.message = std::string(hit.rule->what) + " in `" + def.qualified_name +
                "`, reachable from MCB_HOT_PATH root `" + chain.root +
                "` (" + chain.text +
                ") — transitively hot code must honor R10/R11/R12; fix the "
                "callee or cut the chain with MCB_HOT_PATH_BOUNDARY";
    v.chain = chain.steps;
    v.chain.push_back({def.file, v.line,
                       std::string(hit.rule->what) + " (" + hit.rule->rule + ")"});
    out.push_back(std::move(v));
  }
}

// ------------------------------------------------------------------ R19

/// Constructs that can park the reactor thread. Socket syscalls count
/// even though the reactor's fds are non-blocking — a leaf suppression
/// stating exactly that is the intended resolution, so the claim is
/// written down where the call is made. epoll_wait itself is excluded:
/// it is the reactor's own bounded wait mechanism.
struct BlockRule {
  std::string_view word;
  const char* what;
  bool member_only;
  bool call_only;
};

constexpr BlockRule kBlockingRules[] = {
    {"MutexLock", "scoped mutex acquisition may wait", false, false},
    {"lock_guard", "scoped mutex acquisition may wait", false, false},
    {"unique_lock", "scoped mutex acquisition may wait", false, false},
    {"scoped_lock", "scoped mutex acquisition may wait", false, false},
    {"shared_lock", "scoped reader-lock acquisition may wait", false, false},
    {"lock", "explicit lock() may wait", true, true},
    {"lock_shared", "explicit lock_shared() may wait", true, true},
    {"wait", "condition-variable wait parks the thread", false, true},
    {"wait_for", "condition-variable wait parks the thread", false, true},
    {"wait_until", "condition-variable wait parks the thread", false, true},
    {"sleep_for", "sleeping parks the thread", false, true},
    {"sleep_until", "sleeping parks the thread", false, true},
    {"usleep", "sleeping parks the thread", false, true},
    {"nanosleep", "sleeping parks the thread", false, true},
    {"join", "joining a thread blocks until it exits", true, true},
    {"accept", "accept can block on a blocking listener", false, true},
    {"accept4", "accept4 can block on a blocking listener", false, true},
    {"recv", "recv can block on a blocking socket", false, true},
    {"recvfrom", "recvfrom can block on a blocking socket", false, true},
    {"recvmsg", "recvmsg can block on a blocking socket", false, true},
    {"send", "send can block on a full socket buffer", false, true},
    {"sendto", "sendto can block on a full socket buffer", false, true},
    {"sendmsg", "sendmsg can block on a full socket buffer", false, true},
    {"connect", "connect can block during handshake", false, true},
    {"poll", "poll blocks up to its timeout", false, true},
    {"select", "select blocks up to its timeout", false, true},
    {"getline", "blocking stream read", false, true},
    {"submit", "ThreadPool::submit parks when the queue is full", true, true},
};

void reactor_blocking_hits(const ContextTable& ctxs, const CallGraph& graph,
                           const CallGraph::Reach& reach, std::size_t d,
                           std::vector<Violation>& out) {
  const FunctionDef& def = graph.index().defs[d];
  const std::string_view body = body_of(ctxs, def);
  RenderedChain chain;
  bool have_chain = false;
  for (const BlockRule& rule : kBlockingRules) {
    for (std::size_t pos = find_word(body, rule.word, 0);
         pos != std::string_view::npos;
         pos = find_word(body, rule.word, pos + 1)) {
      if (rule.call_only && !call_like(body, pos, rule.word.size())) continue;
      if (rule.member_only) {
        const char before = prev_nonspace(body, pos);
        if (before != '.' && before != '>') continue;
      }
      if (!have_chain) {
        chain = render_chain(ctxs, graph, reach, d);
        have_chain = true;
      }
      const std::size_t file_pos = def.body_begin + pos;
      Violation v;
      v.file = def.file;
      v.line = line_of(ctxs, def, file_pos);
      v.rule = "R19";
      v.message = std::string(rule.what) + " in `" + def.qualified_name +
                  "`, reachable from reactor root `" + chain.root + "` (" +
                  chain.text +
                  ") — the reactor thread must never block; fix it or mark "
                  "the handoff function MCB_REACTOR_BOUNDARY";
      v.chain = chain.steps;
      v.chain.push_back({def.file, v.line, std::string(rule.what)});
      out.push_back(std::move(v));
    }
  }
}

// ------------------------------------------------------------------ R20

/// `mu_` acquired inside `mcb::HttpServer::drain_completions` names the
/// capability `mcb::HttpServer::mu_` — class-qualifying through the
/// acquiring definition keeps same-named mutexes of unrelated classes
/// from aliasing into false cycles.
std::string qualify_capability(const FunctionDef& def, const std::string& cap) {
  if (cap.find("::") != std::string::npos) return cap;
  const std::size_t sep = def.qualified_name.rfind("::");
  if (sep == std::string::npos) return cap;
  return def.qualified_name.substr(0, sep) + "::" + cap;
}

struct LockEdge {
  ChainStep first;   ///< where the earlier capability is held
  ChainStep second;  ///< where the later capability is acquired
  std::string text;  ///< one-line witness for the message
};

struct Held {
  std::string cap;
  std::size_t pos = 0;
  int depth = 0;
};

}  // namespace

void check_transitive_hot(const ContextTable& ctxs, const CallGraph& graph,
                          std::vector<Violation>& out) {
  const FunctionIndex& index = graph.index();
  std::vector<std::size_t> roots;
  for (std::size_t d = 0; d < index.defs.size(); ++d) {
    if (index.defs[d].hot_path) roots.push_back(d);
  }
  // Each function is visited once, roots first, so a root that another
  // root calls reports its own body as R10–R12 and never again as R18.
  const CallGraph::Reach reach = graph.reachable(
      roots, [](const FunctionDef& def) { return def.hot_boundary; });
  for (const std::size_t d : reach.order) hot_hits(ctxs, graph, reach, d, out);
}

void check_reactor_blocking(const ContextTable& ctxs, const CallGraph& graph,
                            std::vector<Violation>& out) {
  const FunctionIndex& index = graph.index();
  std::vector<std::size_t> roots;
  for (std::size_t d = 0; d < index.defs.size(); ++d) {
    const std::string_view last = index.defs[d].last_name();
    if (last == "reactor_tick" || last == "handle_event") roots.push_back(d);
  }
  const CallGraph::Reach reach = graph.reachable(
      roots, [](const FunctionDef& def) { return def.reactor_boundary; });
  for (const std::size_t d : reach.order) {
    reactor_blocking_hits(ctxs, graph, reach, d, out);
  }
}

void check_lock_order(const ContextTable& ctxs, const CallGraph& graph,
                      std::vector<Violation>& out) {
  const FunctionIndex& index = graph.index();
  const std::size_t n = index.defs.size();

  // What each definition may acquire, directly or through any callee
  // (no boundary cuts — a deadlock does not care about thread handoff
  // markers; the over-approximation is the safe direction).
  std::vector<std::set<std::string>> acq(n);
  for (std::size_t d = 0; d < n; ++d) {
    const FunctionDef& def = index.defs[d];
    for (const LockSite& lock : def.locks) {
      acq[d].insert(qualify_capability(def, lock.capability));
    }
    for (const std::string& cap : def.acquire_caps) {
      acq[d].insert(qualify_capability(def, cap));
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t d = 0; d < n; ++d) {
      for (const CallGraph::Edge& edge : graph.edges_of(d)) {
        for (const std::string& cap : acq[edge.callee]) {
          if (acq[d].insert(cap).second) changed = true;
        }
      }
    }
  }

  // Lock-order edges with witnesses: walk each body tracking the held
  // set (entry capabilities for the whole body; scoped guards until
  // their enclosing block closes — an early unlock() is not modeled).
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            LockEdge witness) {
    edges.emplace(std::make_pair(from, to), std::move(witness));
  };
  for (std::size_t d = 0; d < n; ++d) {
    const FunctionDef& def = index.defs[d];
    if (def.locks.empty() && def.entry_caps.empty()) continue;
    const std::string_view code = ctxs[def.file_ctx]->view.code;

    struct Event {
      std::size_t pos = 0;
      const LockSite* lock = nullptr;     // set for acquisitions
      std::size_t callee = 0;             // set for calls (lock == nullptr)
    };
    std::vector<Event> events;
    for (const LockSite& lock : def.locks) events.push_back({lock.pos, &lock, 0});
    for (const CallGraph::Edge& edge : graph.edges_of(d)) {
      if (!acq[edge.callee].empty()) {
        events.push_back({edge.call_pos, nullptr, edge.callee});
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.pos < b.pos; });

    std::vector<Held> held;
    for (const std::string& cap : def.entry_caps) {
      held.push_back({qualify_capability(def, cap), def.name_pos, 0});
    }
    std::size_t ev = 0;
    int depth = 0;
    for (std::size_t i = def.body_begin; i <= def.body_end; ++i) {
      while (ev < events.size() && events[ev].pos == i) {
        const Event& event = events[ev++];
        if (event.lock != nullptr) {
          const std::string cap = qualify_capability(def, event.lock->capability);
          const std::size_t line = line_of(ctxs, def, event.lock->pos);
          for (const Held& h : held) {
            if (h.cap == cap) continue;
            add_edge(h.cap, cap,
                     {{def.file, line_of(ctxs, def, h.pos),
                       "`" + def.qualified_name + "` holds `" + h.cap + "`"},
                      {def.file, line, "then acquires `" + cap + "`"},
                      "`" + h.cap + "` before `" + cap + "` in `" +
                          def.qualified_name + "`"});
          }
          held.push_back({cap, event.lock->pos, depth});
        } else {
          const FunctionDef& callee = index.defs[event.callee];
          const std::size_t line = line_of(ctxs, def, event.pos);
          for (const Held& h : held) {
            for (const std::string& cap : acq[event.callee]) {
              if (h.cap == cap) continue;
              add_edge(h.cap, cap,
                       {{def.file, line_of(ctxs, def, h.pos),
                         "`" + def.qualified_name + "` holds `" + h.cap + "`"},
                        {def.file, line,
                         "then calls `" + callee.qualified_name +
                             "`, which acquires `" + cap + "`"},
                        "`" + h.cap + "` before `" + cap + "` via `" +
                            def.qualified_name + "` -> `" +
                            callee.qualified_name + "`"});
            }
          }
        }
      }
      if (code[i] == '{') {
        ++depth;
      } else if (code[i] == '}') {
        --depth;
        // Guards constructed inside the block that just closed die here.
        std::erase_if(held, [&](const Held& h) { return h.depth > depth; });
      }
    }
  }

  // Cycle detection over the capability graph; every distinct cycle is
  // reported once, anchored at its first witness, carrying one witness
  // chain per edge of the cycle.
  std::map<std::string, std::vector<std::string>> capadj;
  for (const auto& [key, edge] : edges) capadj[key.first].push_back(key.second);

  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white / 1 on stack / 2 done
  std::vector<std::string> stack;

  const std::function<void(const std::string&)> dfs = [&](const std::string& at) {
    color[at] = 1;
    stack.push_back(at);
    const auto it = capadj.find(at);
    if (it != capadj.end()) {
      for (const std::string& next : it->second) {
        if (color[next] == 0) {
          dfs(next);
        } else if (color[next] == 1) {
          // Cycle: next .. at (top of stack).
          const auto begin = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(begin, stack.end());
          const auto smallest = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), smallest, cycle.end());
          std::string key;
          for (const std::string& cap : cycle) key += cap + ">";
          if (!reported.insert(key).second) continue;

          Violation v;
          v.rule = "R20";
          std::string order;
          for (const std::string& cap : cycle) order += "`" + cap + "` -> ";
          order += "`" + cycle.front() + "`";
          v.message = "lock-order cycle " + order + " — two threads taking "
                      "these in different orders can deadlock; witnesses: ";
          for (std::size_t i = 0; i < cycle.size(); ++i) {
            const LockEdge& edge =
                edges.at({cycle[i], cycle[(i + 1) % cycle.size()]});
            if (i > 0) v.message += "; ";
            v.message += edge.text;
            v.chain.push_back(edge.first);
            v.chain.push_back(edge.second);
          }
          const LockEdge& anchor = edges.at({cycle[0], cycle[1 % cycle.size()]});
          v.file = anchor.second.file;
          v.line = anchor.second.line;
          out.push_back(std::move(v));
        }
      }
    }
    stack.pop_back();
    color[at] = 2;
  };
  for (const auto& [cap, _] : capadj) {
    if (color[cap] == 0) dfs(cap);
  }
}

void check_discarded_status(const ContextTable& ctxs, const CallGraph& graph,
                            std::vector<Violation>& out) {
  const FunctionIndex& index = graph.index();
  for (const FunctionDef& def : index.defs) {
    const std::string_view code = ctxs[def.file_ctx]->view.code;
    for (const CallSite& site : def.calls) {
      // A status call is one where EVERY same-named repo definition
      // returns bool — mixed-name families (e.g. `load` on a std type
      // vs a repo type) stay silent rather than guessing.
      const std::vector<std::size_t> targets =
          graph.resolve(site, /*strict_vocabulary=*/false);
      if (targets.empty()) continue;
      bool all_bool = true;
      for (const std::size_t t : targets) {
        if (!index.defs[t].returns_bool) all_bool = false;
      }
      if (!all_bool) continue;

      // Statement position: `<stmt-start> [recv.]name(args);` (see
      // at_statement_start). Anything else — `(void)` cast, `if (!...)`,
      // assignment, return — uses the result.
      const std::size_t after_name = site.pos + site.name.size();
      const std::size_t paren = next_nonspace(code, after_name);
      if (paren == std::string_view::npos || code[paren] != '(') continue;
      const std::size_t close = match_forward(code, paren, '(', ')');
      if (close == std::string_view::npos) continue;
      const std::size_t after = next_nonspace(code, close + 1);
      if (after == std::string_view::npos || code[after] != ';') continue;

      std::size_t begin = site.pos;
      while (begin > 0) {
        const char c = code[begin - 1];
        if (is_ident_char(c) || c == '.' || c == ':') {
          --begin;
        } else if (c == '>' && begin >= 2 && code[begin - 2] == '-') {
          begin -= 2;
        } else {
          break;
        }
      }
      if (!at_statement_start(code, begin)) continue;

      Violation v;
      v.file = def.file;
      v.line = ctxs[def.file_ctx]->lines.line_of(site.pos);
      v.rule = "R21";
      v.message = "result of `" + site.name + "` is discarded — every repo "
                  "definition of it returns a bool status; check it or make "
                  "the intent explicit with a `(void)` cast";
      out.push_back(std::move(v));
    }
  }
}

}  // namespace mcb::lint
