// Tests for the paper's Step 6 case classification (Cases 1-5).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::in;
using testing_helpers::make_pair_system;
using testing_helpers::tid;

/// Runs Steps 1-5 (paper routing) and classifies.
step6_case classify(const system& spec, const test_suite& suite,
                    const single_transition_fault& fault) {
    simulated_iut iut(spec, fault);
    const auto report = collect_symptoms(spec, suite, iut);
    if (!report.has_symptoms()) return step6_case::none;
    const auto confl = ref_oracle::generate_conflict_sets(spec, report);
    const auto cands = ref_oracle::generate_candidates(spec, report, confl);
    const auto dc = ref_oracle::evaluate_candidates(spec, suite, report, cands);
    return classify_step6(dc);
}

TEST(step6_case_test, paper_example_is_case5) {
    const auto ex = paperex::make_paper_example();
    EXPECT_EQ(classify(ex.spec, ex.suite, ex.fault), step6_case::case5);
}

TEST(step6_case_test, lone_ust_output_fault_is_case1) {
    // One-transition-deep test: the only candidate is the ust itself.
    const system sys = make_pair_system();
    const single_transition_fault f{
        tid(sys, 1, "b5"), sys.symbols().lookup("r2"), std::nullopt};
    test_suite suite;
    suite.add(parse_compact("tc", "R, y2", sys.symbols()));
    EXPECT_EQ(classify(sys, suite, f), step6_case::case1);
}

TEST(step6_case_test, transfer_only_candidate_is_case3_or_4) {
    // A transfer fault whose symptom appears downstream of the faulty
    // transition: the ust is the downstream transition, which replay clears
    // (its output hypothesis is inconsistent), leaving transfer candidates.
    const system sys = make_pair_system();
    const single_transition_fault f{tid(sys, 0, "a1"), std::nullopt,
                                    state_id{0}};
    test_suite suite;
    suite.add(parse_compact("tc", "R, x1, x1", sys.symbols()));
    const auto c = classify(sys, suite, f);
    EXPECT_TRUE(c == step6_case::case3 || c == step6_case::case4 ||
                c == step6_case::case5)
        << to_string(c);
}

TEST(step6_case_test, to_string_covers_all) {
    EXPECT_EQ(to_string(step6_case::none), "none");
    EXPECT_EQ(to_string(step6_case::case1), "Case 1");
    EXPECT_EQ(to_string(step6_case::case2), "Case 2");
    EXPECT_EQ(to_string(step6_case::case3), "Case 3");
    EXPECT_EQ(to_string(step6_case::case4), "Case 4");
    EXPECT_EQ(to_string(step6_case::case5), "Case 5");
}

TEST(step6_case_test, distribution_over_paper_example_campaign) {
    // Every detected fault of the Figure-1 system lands in a defined case
    // (or `none`, which the diagnoser's escalation covers).
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    std::size_t defined = 0, none = 0;
    auto faults = enumerate_all_faults(ex.spec);
    for (const auto& f : faults) {
        if (!detects(ex.spec, suite, f)) continue;
        const auto c = classify(ex.spec, suite, f);
        if (c == step6_case::none) {
            ++none;
        } else {
            ++defined;
        }
    }
    EXPECT_GT(defined, 0u);
    // The paper's routing leaves a small residue of corner cases (see
    // DESIGN.md §5) — they must be a minority.
    EXPECT_LT(none, defined);
}

}  // namespace
}  // namespace cfsmdiag
