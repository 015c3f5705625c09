// Token-level repo invariants R1–R3, R6–R9 and R17 (DESIGN.md §7/§12),
// ported from the original single-file mcbound_lint onto the SourceView
// front-end. All scans run on the code view, so quoted or commented text
// can no longer trip a rule; R8 reads its justification from the
// comments view — the fix for the latent weakness where a string literal
// containing `relaxed:` satisfied the check.
#pragma once

#include <vector>

#include "lint/diagnostics.hpp"

namespace mcb::lint {

void check_no_wallclock_or_libc_rand(const FileContext& ctx, std::vector<Violation>& out);
void check_no_naked_new_delete(const FileContext& ctx, std::vector<Violation>& out);
void check_no_swallowing_catch_all(const FileContext& ctx, std::vector<Violation>& out);
void check_no_raw_std_sync(const FileContext& ctx, std::vector<Violation>& out);
void check_no_thread_detach(const FileContext& ctx, std::vector<Violation>& out);
void check_relaxed_order_justified(const FileContext& ctx, std::vector<Violation>& out);
void check_no_direct_stream_writes(const FileContext& ctx, std::vector<Violation>& out);
void check_reactor_syscall_confinement(const FileContext& ctx, std::vector<Violation>& out);

}  // namespace mcb::lint
