// Unit tests for diag/discriminate: hypothesis tracking, splitting-sequence
// search, observational equivalence.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::in;
using testing_helpers::make_pair_system;
using testing_helpers::tid;

TEST(tracker_test, deduplicates_initial_hypotheses) {
    const system sys = make_pair_system();
    const diagnosis d{tid(sys, 0, "a1"), std::nullopt, state_id{0}};
    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(), {d, d, d});
    EXPECT_EQ(tracker.count(), 1u);
}

TEST(tracker_test, splits_detects_diverging_predictions) {
    const system sys = make_pair_system();
    const diagnosis output_fault{tid(sys, 0, "a1"),
                                 sys.symbols().lookup("ok2"), std::nullopt};
    const diagnosis transfer_fault{tid(sys, 0, "a1"), std::nullopt,
                                   state_id{0}};
    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(),
                               {output_fault, transfer_fault});

    // One x: output fault predicts ok2, transfer fault predicts ok.
    const std::vector<global_input> one{global_input::reset(),
                                        in(sys, 1, "x")};
    EXPECT_TRUE(tracker.splits(one));
    // Reset only: identical predictions.
    EXPECT_FALSE(tracker.splits({global_input::reset()}));
}

TEST(tracker_test, apply_result_keeps_consistent_hypotheses) {
    const system sys = make_pair_system();
    const diagnosis output_fault{tid(sys, 0, "a1"),
                                 sys.symbols().lookup("ok2"), std::nullopt};
    const diagnosis transfer_fault{tid(sys, 0, "a1"), std::nullopt,
                                   state_id{0}};
    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(),
                               {output_fault, transfer_fault});

    const std::vector<global_input> test{global_input::reset(),
                                         in(sys, 1, "x")};
    // Reality: the transfer fault (output stays ok).
    simulated_iut iut(sys, transfer_fault);
    const std::size_t eliminated =
        tracker.apply_result(test, iut.execute(test));
    EXPECT_EQ(eliminated, 1u);
    ASSERT_EQ(tracker.count(), 1u);
    EXPECT_EQ(tracker.alive()[0], transfer_fault);
}

TEST(tracker_test, find_splitting_sequence_is_minimal_and_valid) {
    const system sys = make_pair_system();
    // Two transfer hypotheses on different transitions; they only diverge
    // after the respective transition fires.
    const diagnosis h1{tid(sys, 0, "a1"), std::nullopt, state_id{0}};
    const diagnosis h2{tid(sys, 0, "a2"), std::nullopt, state_id{1}};
    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(), {h1, h2});

    const auto seq = tracker.find_splitting_sequence();
    ASSERT_TRUE(seq.has_value());
    std::vector<global_input> test{global_input::reset()};
    test.insert(test.end(), seq->begin(), seq->end());
    EXPECT_TRUE(tracker.splits(test));
}

TEST(tracker_test, equivalent_hypotheses_have_no_splitting_sequence) {
    // Machine with twin states s2 and s3 (identical self-loop behaviour):
    // transferring a1 to either twin is observationally the same fault.
    symbol_table t;
    fsm_builder ba("A", t);
    ba.state("s0").state("s1").state("s2").state("s3");
    ba.external("a1", "s0", "a", "x", "s1");
    ba.external("a2", "s1", "a", "y", "s1");
    ba.external("a3", "s2", "a", "z", "s2");
    ba.external("a4", "s3", "a", "z", "s3");
    fsm_builder bb("B", t);
    bb.external("b1", "q0", "w", "r", "q0");
    std::vector<fsm> machines;
    machines.push_back(ba.build("s0"));
    machines.push_back(bb.build("q0"));
    const system sys("sys", std::move(t), std::move(machines));

    const diagnosis d1{testing_helpers::tid(sys, 0, "a1"), std::nullopt,
                       state_id{2}};
    const diagnosis d2{testing_helpers::tid(sys, 0, "a1"), std::nullopt,
                       state_id{3}};
    EXPECT_TRUE(observationally_equivalent(sys, d1, d2));

    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(), {d1, d2});
    EXPECT_FALSE(tracker.find_splitting_sequence().has_value());

    // Against a third, distinguishable hypothesis the pair still splits.
    const diagnosis d3{testing_helpers::tid(sys, 0, "a1"),
                       sys.symbols().lookup("y"), std::nullopt};
    hypothesis_tracker tracker3(ctx.discrim(), {d1, d2, d3});
    EXPECT_TRUE(tracker3.find_splitting_sequence().has_value());
}

TEST(equivalence_test, distinguishable_faults_are_not_equivalent) {
    const system sys = make_pair_system();
    const diagnosis d1{tid(sys, 0, "a1"), sys.symbols().lookup("ok2"),
                       std::nullopt};
    const diagnosis d2{tid(sys, 0, "a1"), std::nullopt, state_id{0}};
    EXPECT_FALSE(observationally_equivalent(sys, d1, d2));
    EXPECT_TRUE(observationally_equivalent(sys, d1, d1));
}

}  // namespace
}  // namespace cfsmdiag
