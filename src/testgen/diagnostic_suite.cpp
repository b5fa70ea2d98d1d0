#include "testgen/diagnostic_suite.hpp"

#include <algorithm>
#include <map>

#include "diag/spec_context.hpp"

namespace cfsmdiag {
namespace {

/// Hypothesis 0 is the specification (no overrides); the rest are faults.
using hypothesis = std::vector<transition_override>;

/// Observation signature of one hypothesis over the whole suite.
std::vector<std::vector<observation>> signature(const system& spec,
                                                const test_suite& suite,
                                                const hypothesis& h) {
    std::vector<std::vector<observation>> out;
    out.reserve(suite.size());
    simulator sim(spec, h);
    for (const auto& tc : suite.cases) out.push_back(
        sim.run_from_reset(tc.inputs));
    return out;
}

}  // namespace

diagnostic_suite_result apriori_diagnostic_suite(
    const system& spec, const diagnostic_suite_options& options) {
    diagnostic_suite_result result;
    const spec_context ctx(spec, {});

    std::vector<hypothesis> hyps;
    hyps.push_back({});  // the spec itself
    {
        auto faults = enumerate_all_faults(spec);
        if (faults.size() > options.max_hypotheses)
            faults.resize(options.max_hypotheses);
        for (const auto& f : faults) hyps.push_back({f.to_override()});
    }
    result.hypotheses = hyps.size() - 1;

    // Partition hypotheses by signature; try to split mixed blocks.
    // `inseparable[i]` accumulates hypotheses proven equivalent to i so we
    // don't retry hopeless pairs.
    std::vector<std::vector<std::size_t>> known_equivalent(hyps.size());
    auto equivalent_known = [&](std::size_t a, std::size_t b) {
        return std::find(known_equivalent[a].begin(),
                         known_equivalent[a].end(),
                         b) != known_equivalent[a].end();
    };

    bool progress = true;
    while (progress && result.suite.size() < options.max_tests) {
        progress = false;

        // Refine the partition under the current suite.
        std::map<std::vector<std::vector<observation>>,
                 std::vector<std::size_t>>
            blocks;
        for (std::size_t i = 0; i < hyps.size(); ++i)
            blocks[signature(spec, result.suite, hyps[i])].push_back(i);

        for (auto& [sig, members] : blocks) {
            if (members.size() < 2) continue;
            // Find one splittable pair in this block.
            for (std::size_t a = 0; a < members.size() && !progress; ++a) {
                for (std::size_t b = a + 1; b < members.size(); ++b) {
                    const std::size_t ha = members[a], hb = members[b];
                    if (equivalent_known(ha, hb)) continue;
                    const auto seq = ctx.discrim().splitting_sequence(
                        {hyps[ha], hyps[hb]}, options.max_joint_states);
                    if (!seq) {
                        known_equivalent[ha].push_back(hb);
                        known_equivalent[hb].push_back(ha);
                        continue;
                    }
                    result.suite.add(test_case::from_inputs(
                        "dx" + std::to_string(result.suite.size() + 1),
                        *seq));
                    progress = true;
                    break;
                }
            }
            if (progress) break;  // re-refine with the new test
        }
    }

    // Count residual mixed blocks (all-equivalent groups).
    std::map<std::vector<std::vector<observation>>, std::size_t> final_blocks;
    for (std::size_t i = 0; i < hyps.size(); ++i)
        ++final_blocks[signature(spec, result.suite, hyps[i])];
    for (const auto& [sig, n] : final_blocks) {
        if (n >= 2) ++result.equivalent_groups;
    }
    result.truncated = result.suite.size() >= options.max_tests;
    return result;
}

}  // namespace cfsmdiag
