#include "testgen/mutation.hpp"

#include "diag/spec_context.hpp"
#include "testgen/stats.hpp"

namespace cfsmdiag {

double mutation_report::score() const noexcept {
    const std::size_t killable = mutants - equivalent.size();
    if (killable == 0) return 1.0;
    return static_cast<double>(killed) / static_cast<double>(killable);
}

mutation_report mutation_score(const system& spec, const test_suite& suite,
                               const mutation_options& options) {
    mutation_report report;
    const spec_context ctx(spec, {});
    const auto faults = enumerate_all_faults(spec);
    report.mutants = faults.size();
    for (const auto& f : faults) {
        if (detects(spec, suite, f)) {
            ++report.killed;
            continue;
        }
        if (options.check_equivalence &&
            !ctx.discrim()
                 .splitting_sequence({{}, {f.to_override()}},
                                     options.max_joint_states)
                 .has_value()) {
            report.equivalent.push_back(f);
        } else {
            report.survivors.push_back(f);
        }
    }
    return report;
}

}  // namespace cfsmdiag
