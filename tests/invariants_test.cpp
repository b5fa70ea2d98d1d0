// Algebraic invariants of the diagnostic pipeline, checked across systems
// and fault samples (TEST_P sweeps).  These are the lemmas the paper's
// correctness argument rests on, verified mechanically:
//
//  I1. Before the first symptom, IUT and spec observations agree (by
//      definition of "first").
//  I2. The faulty transition is in every symptomatic conflict set of its
//      machine, hence in its machine's ITC.
//  I3. The true hypothesis replays consistently (mutation replay accepts
//      the truth).
//  I4. Complete evaluation therefore lists the truth among its diagnoses.
//  I5. The ust, when defined, fires in the spec run at or before the
//      first symptom of every symptomatic case.
//  I6. Additional tests never increase the live set, and the truth
//      survives every one of them.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace cfsmdiag {
namespace {

struct invariant_config {
    std::string name;
    int source = 0;  // 0 = pair, 1..3 = models, >=10 random seed
};

std::ostream& operator<<(std::ostream& os, const invariant_config& c) {
    return os << c.name;
}

class invariants : public ::testing::TestWithParam<invariant_config> {
  protected:
    [[nodiscard]] system make() const {
        const auto& cfg = GetParam();
        switch (cfg.source) {
            case 0: return testing_helpers::make_pair_system();
            case 1: return models::alternating_bit();
            case 2: return models::connection_management();
            case 3: return models::token_ring3();
            default: {
                rng random(static_cast<std::uint64_t>(cfg.source));
                random_system_options opts;
                opts.machines = 2 + cfg.source % 3;
                opts.states_per_machine = 3 + cfg.source % 2;
                return random_system(opts, random);
            }
        }
    }
};

TEST_P(invariants, pipeline_lemmas_hold_for_every_detected_fault) {
    const system sys = make();
    test_suite suite = transition_tour(sys).suite;
    rng wr(42);
    suite.extend(random_walk_suite(sys, wr,
                                   {.cases = 3, .steps_per_case = 10}));

    auto faults = enumerate_all_faults(sys);
    std::size_t stride = std::max<std::size_t>(1, faults.size() / 40);
    std::size_t checked = 0;

    for (std::size_t fi = 0; fi < faults.size(); fi += stride) {
        const auto& truth = faults[fi];
        simulated_iut iut(sys, truth);
        const auto report = collect_symptoms(sys, suite, iut);
        if (!report.has_symptoms()) continue;
        ++checked;
        SCOPED_TRACE(describe(sys, truth));

        // I1: agreement before the first symptom.
        for (std::size_t ci : report.symptomatic_cases) {
            const auto& run = report.runs[ci];
            for (std::size_t k = 0; k < *run.first_symptom; ++k) {
                ASSERT_EQ((*run.trace)[k].expected, run.observed[k]);
            }
        }

        // I2: truth's transition in every symptomatic conflict set of its
        // machine, hence in the ITC.
        const auto confl = generate_conflict_sets(sys, report);
        const auto m = truth.target.machine.value;
        for (const auto& set : confl.per_machine[m]) {
            EXPECT_TRUE(set.count(truth.target.transition) != 0);
        }
        const auto cands = generate_candidates(sys, report, confl);
        EXPECT_TRUE(std::binary_search(cands.itc[m].begin(),
                                       cands.itc[m].end(),
                                       truth.target.transition));

        // I3: mutation replay accepts the truth.
        EXPECT_TRUE(hypothesis_consistent(sys, suite, report,
                                          truth.to_override()));

        // I4: complete evaluation lists the truth.
        const auto dc =
            evaluate_candidates_escalated(sys, suite, report, cands);
        const auto diagnoses = dc.diagnoses();
        EXPECT_NE(std::find(diagnoses.begin(), diagnoses.end(), truth),
                  diagnoses.end());

        // I5: the ust fires at or before every first symptom.
        if (report.ust) {
            for (std::size_t ci : report.symptomatic_cases) {
                const auto& run = report.runs[ci];
                bool fired = false;
                for (std::size_t k = 0;
                     k <= *run.first_symptom && !fired; ++k) {
                    for (auto g : (*run.trace)[k].fired)
                        fired = fired || g == *report.ust;
                }
                EXPECT_TRUE(fired);
            }
        }
    }
    EXPECT_GT(checked, 3u) << "sample produced too few detected faults";
}

TEST_P(invariants, additional_tests_shrink_and_keep_truth) {
    const system sys = make();
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    std::size_t stride = std::max<std::size_t>(1, faults.size() / 15);
    std::size_t checked = 0;

    for (std::size_t fi = 0; fi < faults.size(); fi += stride) {
        const auto& truth = faults[fi];
        simulated_iut iut(sys, truth);
        const auto result = diagnose(sys, suite, iut);
        if (result.outcome == diagnosis_outcome::passed) continue;
        ++checked;
        SCOPED_TRACE(describe(sys, truth));

        // I6a: every applied test eliminated at least one hypothesis (the
        // diagnoser only applies splitting tests; a split plus filtering
        // kills someone) … except fallback re-checks, which still must not
        // grow the set.
        std::size_t live = result.initial_diagnoses.size();
        for (const auto& rec : result.additional_tests) {
            EXPECT_LE(rec.eliminated, live);
            EXPECT_GE(rec.eliminated, 1u) << rec.purpose;
            live -= rec.eliminated;
        }
        EXPECT_EQ(live, result.final_diagnoses.size());

        // I6b: the truth (or an observational twin) survived.
        bool sound = false;
        for (const auto& d : result.final_diagnoses) {
            sound = sound || observationally_equivalent(sys, truth, d);
        }
        EXPECT_TRUE(sound);
    }
    EXPECT_GT(checked, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    systems, invariants,
    ::testing::Values(invariant_config{"pair", 0},
                      invariant_config{"abp", 1},
                      invariant_config{"connmgmt", 2},
                      invariant_config{"ring", 3},
                      invariant_config{"rand_a", 11},
                      invariant_config{"rand_b", 12},
                      invariant_config{"rand_c", 13}),
    [](const ::testing::TestParamInfo<invariant_config>& info) {
        return info.param.name;
    });

}  // namespace
}  // namespace cfsmdiag
