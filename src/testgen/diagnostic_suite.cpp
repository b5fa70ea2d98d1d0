#include "testgen/diagnostic_suite.hpp"

#include <algorithm>
#include <optional>

#include "diag/spec_context.hpp"

namespace cfsmdiag {
namespace {

/// Hypothesis 0 is the specification (no overrides); the rest are faults.
using hypothesis = std::vector<transition_override>;

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

    // The hypotheses partitioned by their observations on the suite so far:
    // blocks in the order of those whole-suite observation vectors
    // (lexicographic, test by test), members ascending, and rank[i] the
    // position of hypothesis i's block.  A new test refines it: blocks
    // ordered by (rank, observations of the new test) order exactly as
    // whole-suite observation vectors do, so the suite is never replayed.
    std::vector<std::vector<std::size_t>> blocks(1);
    for (std::size_t i = 0; i < hyps.size(); ++i) blocks[0].push_back(i);
    std::vector<std::size_t> rank(hyps.size(), 0);
    const auto refine = [&](const std::vector<global_input>& inputs) {
        const auto seq = ctx.discrim().replay_for(inputs);
        std::vector<std::vector<std::uint64_t>> outputs;
        outputs.reserve(hyps.size());
        outputs.push_back(seq->tables().expected);
        for (std::size_t i = 1; i < hyps.size(); ++i)
            outputs.push_back(seq->predict(hyps[i].front()));
        const auto before = [&](std::size_t a, std::size_t b) {
            if (rank[a] != rank[b]) return rank[a] < rank[b];
            return outputs[a] < outputs[b];
        };
        std::vector<std::size_t> order(hyps.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(), before);
        blocks.clear();
        for (std::size_t k = 0; k < order.size(); ++k) {
            if (k == 0 || before(order[k - 1], order[k])) blocks.emplace_back();
            blocks.back().push_back(order[k]);
        }
        for (std::size_t b = 0; b < blocks.size(); ++b)
            for (const std::size_t i : blocks[b]) rank[i] = b;
    };

    // Split mixed blocks, the first block first.  `known_equivalent[i]`
    // accumulates hypotheses proven equivalent to i so we don't retry
    // hopeless pairs.
    std::vector<std::vector<std::size_t>> known_equivalent(hyps.size());
    auto equivalent_known = [&](std::size_t a, std::size_t b) {
        return std::find(known_equivalent[a].begin(),
                         known_equivalent[a].end(),
                         b) != known_equivalent[a].end();
    };

    while (result.suite.size() < options.max_tests) {
        std::optional<std::vector<global_input>> test;
        for (const auto& members : blocks) {
            if (members.size() < 2) continue;
            // Find one splittable pair in this block.
            for (std::size_t a = 0; a < members.size() && !test; ++a) {
                for (std::size_t b = a + 1; b < members.size(); ++b) {
                    const std::size_t ha = members[a], hb = members[b];
                    if (equivalent_known(ha, hb)) continue;
                    test = ctx.discrim().splitting_sequence(
                        {hyps[ha], hyps[hb]}, options.max_joint_states);
                    if (test) break;
                    known_equivalent[ha].push_back(hb);
                    known_equivalent[hb].push_back(ha);
                }
            }
            if (test) break;
        }
        if (!test) break;
        result.suite.add(test_case::from_inputs(
            "dx" + std::to_string(result.suite.size() + 1), *test));
        refine(*test);
    }

    // Residual mixed blocks are all-equivalent groups.
    for (const auto& members : blocks) {
        if (members.size() >= 2) ++result.equivalent_groups;
    }
    result.truncated = result.suite.size() >= options.max_tests;
    return result;
}

}  // namespace cfsmdiag
