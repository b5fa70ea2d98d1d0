// Candidate-set behaviour: how much the initial suite narrows the search.
//
// The diagnostic algorithm's efficiency rests on conflict-set
// intersection (Step 5A) pruning the hypothesis space before any
// additional test runs.  This bench measures, per suite strength, the mean
// ITC size, the mean number of Step-5C diagnoses entering Step 6, and the
// additional tests needed — showing the trade-off between up-front test
// effort and diagnostic effort.
#include <iostream>

#include "cfsmdiag.hpp"

int main() {
    using namespace cfsmdiag;

    rng random(4242);
    random_system_options gen;
    gen.machines = 3;
    gen.states_per_machine = 4;
    gen.extra_transitions = 8;
    const cfsmdiag::system spec = random_system(gen, random);
    std::cout << "system: 3 machines x 4 states, "
              << spec.total_transitions() << " transitions\n\n";

    struct suite_variant {
        std::string name;
        test_suite suite;
    };
    std::vector<suite_variant> variants;
    variants.push_back({"tour only", transition_tour(spec).suite});
    {
        test_suite s = transition_tour(spec).suite;
        rng wr(1);
        s.extend(random_walk_suite(spec, wr,
                                   {.cases = 4, .steps_per_case = 10}));
        variants.push_back({"tour + 4 walks", std::move(s)});
    }
    {
        test_suite s = transition_tour(spec).suite;
        rng wr(2);
        s.extend(random_walk_suite(spec, wr,
                                   {.cases = 16, .steps_per_case = 14}));
        variants.push_back({"tour + 16 walks", std::move(s)});
    }
    variants.push_back({"per-machine W", per_machine_w_suite(spec).suite});

    auto faults = enumerate_all_faults(spec);
    if (faults.size() > 150) faults.resize(150);

    text_table t({"suite", "inputs", "detected", "mean ITC total",
                  "mean initial diagnoses", "mean final",
                  "mean add. tests", "mean add. inputs"});
    for (const auto& v : variants) {
        double itc_sum = 0;
        std::size_t detected = 0;
        campaign_options opts;
        const auto stats = run_campaign(spec, v.suite, faults, opts);
        // Re-derive ITC sizes (cheap: re-run symptoms per detected fault).
        const spec_context ctx(spec, v.suite);
        for (const auto& e : stats.entries) {
            if (!e.detected) continue;
            ++detected;
            simulated_iut iut(spec, e.fault);
            const auto report =
                collect_symptoms(spec, v.suite, iut, ctx.traces());
            bit_arena arena;
            const auto cands = materialize_candidate_sets(
                ctx.compiled(), report,
                compile_conflicts(ctx.compiled(), report, arena));
            std::size_t itc_total = 0;
            for (const auto& per : cands.itc) itc_total += per.size();
            itc_sum += static_cast<double>(itc_total);
        }
        t.add_row({v.name, std::to_string(v.suite.total_inputs()),
                   std::to_string(detected),
                   detected ? fmt_double(itc_sum /
                                             static_cast<double>(detected),
                                         2)
                            : "-",
                   fmt_double(stats.mean_initial_diagnoses, 2),
                   fmt_double(stats.mean_final_diagnoses, 2),
                   fmt_double(stats.mean_additional_tests, 2),
                   fmt_double(stats.mean_additional_inputs, 2)});
    }
    std::cout << t
              << "\nshape check: stronger initial suites shrink ITC and "
                 "initial diagnoses, trading up-front inputs for fewer "
                 "adaptive tests.\n";
    return 0;
}
