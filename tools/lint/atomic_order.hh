/**
 * @file
 * atomic-order rule: every std::atomic operation in the concurrency
 * core must name an explicit std::memory_order, and every atomic
 * data member must carry a machine-checked `// glider-mo: <role>`
 * contract comment whose role admits the orders actually used. The
 * role vocabulary is documented in DESIGN.md ("Static analysis").
 */

#ifndef GLIDER_TOOLS_LINT_ATOMIC_ORDER_HH
#define GLIDER_TOOLS_LINT_ATOMIC_ORDER_HH

#include <vector>

#include "lint/lint_core.hh"

namespace glider {
namespace lint {

/**
 * Runs over every scanned file but only inspects the rule's scope
 * (src/serve/, src/common/thread_pool.hh,
 * src/common/cancellation.hh, src/common/cpu_budget.*,
 * src/cachesim/replay_stages.*). Global
 * because contracts declared in a header govern operations in other
 * translation units.
 */
void ruleAtomicOrder(const std::vector<FileCtx> &files,
                     std::vector<Finding> &out);

} // namespace lint
} // namespace glider

#endif // GLIDER_TOOLS_LINT_ATOMIC_ORDER_HH
