// Tests for the multiple-fault extension (the paper's future work).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::make_pair_system;
using testing_helpers::tid;

TEST(fault_set_test, validation) {
    const system sys = make_pair_system();
    const single_transition_fault f1{
        tid(sys, 0, "a1"), sys.symbols().lookup("ok2"), std::nullopt};
    const single_transition_fault f2{tid(sys, 1, "b1"), std::nullopt,
                                     state_id{0}};
    EXPECT_NO_THROW(validate_fault_set(sys, {{f1, f2}}));
    EXPECT_THROW(validate_fault_set(sys, {{}}), error);
    EXPECT_THROW(validate_fault_set(sys, {{f1, f1}}), error);
    const single_transition_fault f3{tid(sys, 0, "a2"),
                                     sys.symbols().lookup("ok"),
                                     std::nullopt};
    EXPECT_THROW(validate_fault_set(sys, {{f1, f2, f3}}, 2), error);
}

TEST(multi_iut_test, applies_both_faults) {
    const system sys = make_pair_system();
    const fault_set fs{{
        {tid(sys, 0, "a1"), sys.symbols().lookup("ok2"), std::nullopt},
        {tid(sys, 0, "a2"), sys.symbols().lookup("ok"), std::nullopt},
    }};
    simulated_multi_iut iut(sys, fs);
    const auto obs = iut.execute({global_input::reset(),
                                  testing_helpers::in(sys, 1, "x"),
                                  testing_helpers::in(sys, 1, "x")});
    EXPECT_EQ(obs[1], testing_helpers::at(sys, 1, "ok2"));
    EXPECT_EQ(obs[2], testing_helpers::at(sys, 1, "ok"));
}

TEST(multi_diagnoser_test, passes_on_fault_free_iut) {
    const system sys = make_pair_system();
    simulated_iut iut(sys);
    const auto result =
        diagnose_multi(sys, transition_tour(sys).suite, iut);
    EXPECT_EQ(result.outcome, diagnosis_outcome::passed);
}

TEST(multi_diagnoser_test, localizes_a_single_fault_too) {
    // k <= 2 diagnosis subsumes the single-fault case.
    const system sys = make_pair_system();
    const fault_set truth{{{tid(sys, 0, "a2"), sys.symbols().lookup("ok"),
                            std::nullopt}}};
    simulated_multi_iut iut(sys, truth);
    const auto result =
        diagnose_multi(sys, transition_tour(sys).suite, iut);
    ASSERT_TRUE(result.is_localized())
        << to_string(result.outcome) << " with "
        << result.final_hypotheses.size() << " hypotheses";
    // Truth (or an equivalent) among finals.
    bool found = false;
    for (const auto& fs : result.final_hypotheses) {
        if (!ref_oracle::splitting_sequence(sys, {truth.to_overrides(),
                                      fs.to_overrides()})
                 .has_value())
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(multi_diagnoser_test, localizes_two_output_faults) {
    const system sys = make_pair_system();
    const fault_set truth{{
        {tid(sys, 0, "a2"), sys.symbols().lookup("ok"), std::nullopt},
        {tid(sys, 1, "b5"), sys.symbols().lookup("r2"), std::nullopt},
    }};
    simulated_multi_iut iut(sys, truth);
    test_suite suite = transition_tour(sys).suite;
    rng wr(5);
    suite.extend(random_walk_suite(sys, wr,
                                   {.cases = 4, .steps_per_case = 8}));
    const auto result = diagnose_multi(sys, suite, iut);
    ASSERT_TRUE(result.is_localized()) << to_string(result.outcome);
    bool found = false;
    for (const auto& fs : result.final_hypotheses) {
        if (!ref_oracle::splitting_sequence(sys, {truth.to_overrides(),
                                      fs.to_overrides()})
                 .has_value())
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(multi_diagnoser_test, localizes_output_plus_transfer_pair) {
    const system sys = make_pair_system();
    const fault_set truth{{
        {tid(sys, 0, "a3"), sys.symbols().lookup("msg2"), std::nullopt},
        {tid(sys, 1, "b5"), std::nullopt, state_id{0}},
    }};
    simulated_multi_iut iut(sys, truth);
    test_suite suite = transition_tour(sys).suite;
    rng wr(9);
    suite.extend(random_walk_suite(sys, wr,
                                   {.cases = 6, .steps_per_case = 10}));
    const auto result = diagnose_multi(sys, suite, iut);
    ASSERT_TRUE(result.is_localized()) << to_string(result.outcome);
    bool found = false;
    for (const auto& fs : result.final_hypotheses) {
        if (!ref_oracle::splitting_sequence(sys, {truth.to_overrides(),
                                      fs.to_overrides()})
                 .has_value())
            found = true;
    }
    EXPECT_TRUE(found) << "final hypotheses miss the truth";
}

TEST(multi_diagnoser_test, soundness_sweep_over_double_faults) {
    // Deterministic sample of double faults on the pair system: whenever
    // detected, the truth must be among (or equivalent to) the finals.
    const system sys = make_pair_system();
    test_suite suite = transition_tour(sys).suite;
    rng wr(31);
    suite.extend(random_walk_suite(sys, wr,
                                   {.cases = 4, .steps_per_case = 10}));

    const auto singles = enumerate_all_faults(sys);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < singles.size() && checked < 12; i += 5) {
        for (std::size_t j = i + 1; j < singles.size() && checked < 12;
             j += 7) {
            if (singles[i].target == singles[j].target) continue;
            const fault_set truth{{singles[i], singles[j]}};
            simulated_multi_iut iut(sys, truth);
            const auto result = diagnose_multi(sys, suite, iut);
            if (result.outcome == diagnosis_outcome::passed) continue;
            ++checked;
            SCOPED_TRACE(describe(sys, truth));
            ASSERT_FALSE(result.final_hypotheses.empty())
                << to_string(result.outcome);
            bool found = false;
            for (const auto& fs : result.final_hypotheses) {
                if (!ref_oracle::splitting_sequence(sys, {truth.to_overrides(),
                                              fs.to_overrides()})
                         .has_value())
                    found = true;
            }
            EXPECT_TRUE(found);
        }
    }
    EXPECT_GT(checked, 4u);
}

TEST(multi_diagnoser_test, describe_renders_sets) {
    const system sys = make_pair_system();
    const fault_set fs{{
        {tid(sys, 0, "a2"), sys.symbols().lookup("ok"), std::nullopt},
        {tid(sys, 1, "b5"), std::nullopt, state_id{0}},
    }};
    const std::string text = describe(sys, fs);
    EXPECT_NE(text.find("A.a2"), std::string::npos);
    EXPECT_NE(text.find("B.b5"), std::string::npos);
    EXPECT_NE(text.find(";"), std::string::npos);
}

}  // namespace
}  // namespace cfsmdiag
