// Test-suite engineering workflow: generate → score → strengthen → reduce.
//
//   $ ./suite_engineering
//
// A realistic pre-diagnosis loop on the connection-management protocol:
// start from a cheap transition tour, mutation-score it against the whole
// single-transition fault model, strengthen it until every killable mutant
// dies, then shrink it back with detection-preserving reduction — and show
// what the final suite buys the diagnoser.
#include <iostream>

#include "cfsmdiag.hpp"

int main() {
    using namespace cfsmdiag;

    const cfsmdiag::system spec = models::connection_management();
    std::cout << "system: " << spec.name() << ", "
              << spec.total_transitions() << " transitions\n\n";
    // The joint-state search below runs on the spec's lowering.
    const spec_context ctx(spec, {});

    auto show = [&](const std::string& label, const test_suite& suite) {
        const auto report = mutation_score(spec, suite);
        std::cout << label << ": " << suite.size() << " cases, "
                  << suite.total_inputs() << " inputs, score "
                  << fmt_double(100.0 * report.score(), 1) << "% ("
                  << report.survivors.size() << " live, "
                  << report.equivalent.size() << " equivalent)\n";
        return report;
    };

    // Step 1: cheap detection suite.
    test_suite suite = transition_tour(spec).suite;
    auto report = show("tour", suite);

    // Step 2: strengthen — one targeted test per surviving mutant, found
    // by the joint-state splitting search (spec vs mutant).
    std::size_t added = 0;
    for (const auto& f : report.survivors) {
        const auto seq = ctx.discrim().splitting_sequence(
            {{}, {f.to_override()}}, 100'000);
        if (!seq) continue;
        suite.add(test_case::from_inputs(
            "kill" + std::to_string(++added), *seq));
    }
    report = show("tour + targeted kills", suite);

    // Step 3: shrink back.
    const auto reduced =
        reduce_suite(spec, suite, enumerate_all_faults(spec));
    report = show("reduced", reduced.suite);

    // Step 4: what diagnosis looks like on the engineered suite.
    const auto stats = run_campaign(spec, reduced.suite,
                                    enumerate_all_faults(spec), {});
    std::cout << "\ndiagnosis campaign on the engineered suite:\n"
              << "  detected " << stats.detected << "/" << stats.total
              << ", localized "
              << (stats.localized + stats.localized_equiv) << "/"
              << stats.detected << ", mean "
              << fmt_double(stats.mean_additional_tests, 2)
              << " additional tests per fault\n";
    return report.survivors.empty() ? 0 : 1;
}
