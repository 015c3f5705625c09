// Function-index pass of mcbound_lint (DESIGN.md §13).
//
// Extracts every function/method *definition* and its call sites from
// the string/comment-aware code views, so the call-graph pass can link
// them across translation units. The extraction is lexical, not a C++
// parse; its model (and its known precision limits, documented in
// DESIGN.md §13) is:
//
//  * a definition is an identifier (possibly `Class::`-qualified, or an
//    operator name) followed by a balanced parameter list and a
//    brace-matched body — keyword heads (`if`, `while`, ...) and
//    ALL_CAPS macro names are rejected;
//  * definitions are qualified with their enclosing `namespace` /
//    `class` / `struct` scopes, so an in-class body and an out-of-line
//    `Class::method` body both index as `ns::Class::method`;
//  * the index is overload-insensitive by design: two overloads share
//    one qualified name and a call site links to all of them;
//  * lambda bodies are attributed to the enclosing function (a lambda
//    is not a definition, so its calls and lock sites belong to the
//    function that textually contains it) — which is exactly what the
//    reachability rules want, since a lambda handed to the handler pool
//    is written inside the dispatching function;
//  * a local struct's methods are definitions of their own; their
//    ranges are excluded from the enclosing function's call scan.
//
// Per definition the index also records the facts the rules consume:
// the MCB_HOT_PATH / MCB_HOT_PATH_BOUNDARY / MCB_REACTOR_BOUNDARY /
// MCB_SIGNAL_HANDLER markers and where the first of them sits (this is
// the analyzer's one marker parser; a marker not attached to a
// definition is R16), a `bool` return type (rule R21), MCB_REQUIRES /
// MCB_ACQUIRE capabilities, and the ordered scoped-lock acquisition
// sites in the body (rule R20).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostics.hpp"

namespace mcb::lint {

struct CallSite {
  std::string name;    ///< as written, '::'-joined (receiver dropped)
  std::size_t pos = 0; ///< byte offset of the name in the file
  bool member = false; ///< preceded by '.' or '->'
};

struct LockSite {
  std::string capability;  ///< normalized as written; R20 class-qualifies it
  std::size_t pos = 0;
  std::string guard;       ///< the scoped-lock type spelled at the site
};

struct FunctionDef {
  std::string name;            ///< as written at the definition
  std::string qualified_name;  ///< enclosing scopes + written name
  std::string file;            ///< path relative to the lint root
  std::size_t file_ctx = 0;    ///< index into the driver's context table
  std::size_t name_pos = 0;    ///< byte offset of the name
  std::size_t params_open = 0; ///< offset of the parameter list '('
  std::size_t body_begin = 0;  ///< offset of the body '{'
  std::size_t body_end = 0;    ///< offset of the matching '}'
  /// Offset of the first marker attached to this definition; npos
  /// when it carries none.
  std::size_t marker_pos = std::string_view::npos;
  bool hot_path = false;
  bool hot_boundary = false;      ///< MCB_HOT_PATH_BOUNDARY
  bool reactor_boundary = false;  ///< MCB_REACTOR_BOUNDARY
  bool signal_handler = false;    ///< MCB_SIGNAL_HANDLER
  bool returns_bool = false;
  std::vector<std::string> entry_caps;    ///< MCB_REQUIRES args
  std::vector<std::string> acquire_caps;  ///< MCB_ACQUIRE args
  std::vector<CallSite> calls;  ///< in body order, nested defs excluded
  std::vector<LockSite> locks;  ///< scoped-lock constructions, in order

  /// Last '::' component of qualified_name.
  std::string_view last_name() const;
};

struct FunctionIndex {
  std::vector<FunctionDef> defs;
  /// last name component -> indices into defs (cross-file).
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_last_name;

  void add_file(const FileContext& ctx, std::size_t file_ctx_id,
                std::vector<Violation>& out);
};

/// The file-context table the function index was built over, indexed by
/// FunctionDef::file_ctx.
using ContextTable = std::vector<const FileContext*>;

/// Extract every definition in one file. Markers that do not attach to a
/// definition are reported as R16 into `out`.
std::vector<FunctionDef> index_functions(const FileContext& ctx,
                                         std::vector<Violation>& out);

/// Widen every suppression written on a marked definition's signature
/// (from its first marker to the body's opening brace) to the whole
/// body, so a policy exception sits next to the annotation it excuses.
/// No-op for an unmarked definition.
void widen_signature_suppressions(const FunctionDef& def, FileContext& ctx);

}  // namespace mcb::lint
