// Unit tests for the individual diagnostic steps (symptom, conflict,
// candidates, hypotheses) on the small pair system.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::in;
using testing_helpers::make_pair_system;
using testing_helpers::tid;

test_suite small_suite(const system& sys) {
    test_suite suite;
    // tc1 exercises a1, a2 and the messages; tc2 exercises b5 and a4's
    // message from p1.
    suite.add(parse_compact("tc1", "R, x1, send1, x1, send1",
                            sys.symbols()));
    suite.add(parse_compact("tc2", "R, y2, x1, send1", sys.symbols()));
    return suite;
}

TEST(symptom_test, no_fault_no_symptom) {
    const system sys = make_pair_system();
    simulated_iut iut(sys);
    const auto report = collect_symptoms(sys, small_suite(sys), iut);
    EXPECT_FALSE(report.has_symptoms());
    EXPECT_FALSE(report.ust.has_value());
    EXPECT_FALSE(report.flag);
    EXPECT_EQ(report.runs.size(), 2u);
}

TEST(symptom_test, output_fault_gives_symptom_at_faulty_step) {
    const system sys = make_pair_system();
    // a2 (p1 -x/ok2→ p0) emits ok instead: tc1 position 3 (0-based).
    const single_transition_fault f{
        tid(sys, 0, "a2"), sys.symbols().lookup("ok"), std::nullopt};
    simulated_iut iut(sys, f);
    const auto report = collect_symptoms(sys, small_suite(sys), iut);
    ASSERT_TRUE(report.has_symptoms());
    const auto& run = report.runs[0];
    ASSERT_TRUE(run.first_symptom.has_value());
    EXPECT_EQ(*run.first_symptom, 3u);
    ASSERT_TRUE(run.symptom_transition.has_value());
    EXPECT_EQ(sys.transition_label(*run.symptom_transition), "A.a2");
    // tc2 also executes a2?  tc2 = R, y2, x1, send1: fires a1 then a4 — a2
    // does not execute, so tc2 stays clean and the ust is unique.
    ASSERT_TRUE(report.ust.has_value());
    EXPECT_EQ(sys.transition_label(*report.ust), "A.a2");
    EXPECT_EQ(report.uso.output, sys.symbols().lookup("ok"));
    // Pure output fault: nothing diverges afterwards.
    EXPECT_FALSE(report.flag);
}

TEST(symptom_test, transfer_fault_sets_flag_on_late_discrepancies) {
    const system sys = make_pair_system();
    // a1 transfers to p0 instead of p1: tc1 diverges from position 2 on?
    // tc1 = R, x1, send1, x1, send1.  With a1→p0: pos1 ok (output right),
    // pos2 send from p0 → msg1 (same as spec's p0?  spec: after a1 we're in
    // p1, send → a4/msg2 → b2... wait spec pos2: A in p1, a4 sends msg2, B
    // q0 → b2 r2.  Faulty: A in p0, a3 sends msg1 → b1 r1.  Symptom at
    // pos2; pos3: spec x→a2/ok2, faulty x→a1/ok: symptom; pos4 differs too
    // → flag true.
    const single_transition_fault f{tid(sys, 0, "a1"), std::nullopt,
                                    state_id{0}};
    simulated_iut iut(sys, f);
    const auto report = collect_symptoms(sys, small_suite(sys), iut);
    ASSERT_TRUE(report.has_symptoms());
    EXPECT_EQ(*report.runs[0].first_symptom, 2u);
    EXPECT_TRUE(report.flag);
}

TEST(conflict_test, sets_contain_prefix_transitions_only) {
    const system sys = make_pair_system();
    const single_transition_fault f{
        tid(sys, 0, "a2"), sys.symbols().lookup("ok"), std::nullopt};
    simulated_iut iut(sys, f);
    const auto report = collect_symptoms(sys, small_suite(sys), iut);
    const auto confl = ref_oracle::generate_conflict_sets(sys, report);

    // Only tc1 is symptomatic; first symptom at step 3 (x1 → a2).
    ASSERT_EQ(confl.per_machine[0].size(), 1u);
    // Machine A executed a1 (step1), a4 (step2), a2 (step3).
    std::vector<std::string> names;
    for (transition_id t : confl.per_machine[0][0])
        names.push_back(sys.machine(machine_id{0}).at(t).name);
    EXPECT_EQ(names, (std::vector<std::string>{"a1", "a2", "a4"}));
    // Machine B executed b2 (reaction to msg2).
    ASSERT_EQ(confl.per_machine[1][0].size(), 1u);
    EXPECT_EQ(sys.machine(machine_id{1})
                  .at(*confl.per_machine[1][0].begin())
                  .name,
              "b2");
}

TEST(conflict_test, intersection_across_cases_shrinks_itc) {
    const system sys = make_pair_system();
    // b5 output fault (q0 -y/r1→ q1 emits r2): symptomatic in a case that
    // applies y2, and in one that applies y2 after noise.
    const single_transition_fault f{
        tid(sys, 1, "b5"), sys.symbols().lookup("r2"), std::nullopt};
    test_suite suite;
    suite.add(parse_compact("tc1", "R, x1, x1, y2", sys.symbols()));
    suite.add(parse_compact("tc2", "R, y2", sys.symbols()));
    simulated_iut iut(sys, f);
    const auto report = collect_symptoms(sys, suite, iut);
    ASSERT_EQ(report.symptomatic_cases.size(), 2u);
    const auto confl = ref_oracle::generate_conflict_sets(sys, report);
    const auto cands = ref_oracle::generate_candidates(sys, report, confl);

    // A's ITC is the intersection of {a1, a2} (tc1) and {} (tc2) = {}.
    EXPECT_TRUE(cands.itc[0].empty());
    // B's ITC = {b5}.
    ASSERT_EQ(cands.itc[1].size(), 1u);
    EXPECT_EQ(sys.machine(machine_id{1}).at(cands.itc[1][0]).name, "b5");
    ASSERT_TRUE(cands.ust.has_value());
    EXPECT_EQ(sys.transition_label(*cands.ust), "B.b5");
    // The ust is excluded from FTCtr.
    EXPECT_TRUE(cands.ftc_tr[1].empty());
    // b5 is external → not in FTCco.
    EXPECT_TRUE(cands.ftc_co[1].empty());
}

TEST(hypotheses_test, replay_accepts_exactly_the_true_output_fault) {
    const system sys = make_pair_system();
    const auto target = tid(sys, 0, "a3");  // internal, msg1 → B
    const single_transition_fault truth{
        target, sys.symbols().lookup("msg2"), std::nullopt};
    test_suite suite;
    suite.add(parse_compact("tc", "R, send1, x1, send1", sys.symbols()));
    simulated_iut iut(sys, truth);
    const auto report = collect_symptoms(sys, suite, iut);
    ASSERT_TRUE(report.has_symptoms());

    EXPECT_TRUE(
        ref_oracle::hypothesis_consistent(sys, suite, report,
                                          truth.to_override()));
    // The same transition with a transfer-only hypothesis cannot explain
    // the wrong message.
    EXPECT_FALSE(ref_oracle::hypothesis_consistent(
        sys, suite, report,
        transition_override{target, std::nullopt, state_id{1}}));

    const auto alphabets = compute_alphabets(sys);
    const auto outs = ref_oracle::consistent_outputs(
        sys, suite, report, target,
        admissible_faulty_outputs(sys, alphabets, target));
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0], sys.symbols().lookup("msg2"));
    EXPECT_TRUE(ref_oracle::end_states(sys, suite, report, target).empty());
}

TEST(hypotheses_test, end_states_finds_true_transfer_fault) {
    const system sys = make_pair_system();
    const auto target = tid(sys, 0, "a1");
    const single_transition_fault truth{target, std::nullopt, state_id{0}};
    test_suite suite;
    suite.add(parse_compact("tc", "R, x1, x1", sys.symbols()));
    simulated_iut iut(sys, truth);
    const auto report = collect_symptoms(sys, suite, iut);
    ASSERT_TRUE(report.has_symptoms());

    const auto ends = ref_oracle::end_states(sys, suite, report, target);
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0], state_id{0});
}

TEST(hypotheses_test, statout_finds_double_fault) {
    const system sys = make_pair_system();
    const auto target = tid(sys, 0, "a1");
    const single_transition_fault truth{
        target, sys.symbols().lookup("ok2"), state_id{0}};
    test_suite suite;
    suite.add(parse_compact("tc", "R, x1, x1, send1", sys.symbols()));
    simulated_iut iut(sys, truth);
    const auto report = collect_symptoms(sys, suite, iut);
    ASSERT_TRUE(report.has_symptoms());

    const auto couples = ref_oracle::consistent_statout(
        sys, suite, report, target, {sys.symbols().lookup("ok2")});
    ASSERT_EQ(couples.size(), 1u);
    EXPECT_EQ(couples[0].first, state_id{0});
    EXPECT_EQ(couples[0].second, sys.symbols().lookup("ok2"));
}

}  // namespace
}  // namespace cfsmdiag
