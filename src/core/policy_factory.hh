/**
 * @file
 * Name-based construction of every replacement policy in the repo —
 * the lineup of the paper's evaluation plus the extra baselines —
 * used by the benchmark harness and the examples.
 */

#ifndef GLIDER_CORE_POLICY_FACTORY_HH
#define GLIDER_CORE_POLICY_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "cachesim/replacement.hh"

namespace glider {
namespace core {

/** All constructible policy names. */
std::vector<std::string> policyNames();

/**
 * Construct a policy by name ("LRU", "Random", "SRRIP", "BRRIP",
 * "DRRIP", "SHiP", "SHiP++", "MPPPB", "Hawkeye", "Glider", "FRD",
 * "MUSTACHE", "COALESCE", "EntropyAge", "DecayCount").
 * Fatal on unknown names.
 */
std::unique_ptr<sim::ReplacementPolicy>
makePolicy(const std::string &name);

/** The paper's Figure 11–13 lineup: Hawkeye, MPPPB, SHiP++, Glider. */
std::vector<std::string> paperLineup();

/**
 * The policy zoo: FRD, MUSTACHE, COALESCE, and the two cheap
 * heuristic baselines — the lineup of the adversarial scenario grid
 * in fig11_miss_reduction (both of its views).
 */
std::vector<std::string> zooLineup();

} // namespace core
} // namespace glider

#endif // GLIDER_CORE_POLICY_FACTORY_HH
