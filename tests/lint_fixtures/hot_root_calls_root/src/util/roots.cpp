// Fixture: an MCB_HOT_PATH root that another root calls. The growth in
// its own body is one R10 — the walk visits each function once, so it is
// not reported again as an R18 reachable from the calling root.

#define MCB_HOT_PATH

#include <vector>

namespace fix {

MCB_HOT_PATH
void inner_root(std::vector<int>& buf) { buf.push_back(1); }

MCB_HOT_PATH
void outer_root(std::vector<int>& buf) { inner_root(buf); }

}  // namespace fix
