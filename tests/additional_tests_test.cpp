// Tests for the structured Step-6 proposal generator: the paper's
// construction rules, checked as invariants.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::make_pair_system;
using testing_helpers::tid;

/// Runs Steps 1-5 and returns the live tracker plus the spec.
struct setup {
    symptom_report report;
    std::vector<diagnosis> diagnoses;
};

setup run_steps_1_to_5(const system& spec, const test_suite& suite,
                       const single_transition_fault& fault) {
    simulated_iut iut(spec, fault);
    setup s;
    s.report = collect_symptoms(spec, suite, iut);
    const auto confl = ref_oracle::generate_conflict_sets(spec, s.report);
    const auto cands = ref_oracle::generate_candidates(spec, s.report, confl);
    s.diagnoses =
        ref_oracle::evaluate_candidates_escalated(spec, suite, s.report, cands)
            .diagnoses();
    return s;
}

TEST(proposal_test, transfer_prefix_avoids_live_candidates) {
    // The paper's ambiguity rule: the transfer sequence must not fire any
    // transition still under suspicion.
    const auto ex = paperex::make_paper_example();
    const auto s = run_steps_1_to_5(ex.spec, ex.suite, ex.fault);
    const spec_context ctx(ex.spec, {});
    hypothesis_tracker tracker(ctx.discrim(), s.diagnoses);
    ASSERT_GT(tracker.count(), 1u);

    std::set<global_transition_id> suspects;
    for (const auto& d : tracker.alive()) suspects.insert(d.target);

    const auto proposals =
        propose_structured_tests(ex.spec, tracker.alive());
    ASSERT_FALSE(proposals.empty());
    for (const auto& p : proposals) {
        // Replay the proposal on the spec; transitions fired before the
        // suspect's own input must not be suspects.
        simulator sim(ex.spec);
        bool suspect_reached = false;
        for (const auto& in : p.tc.inputs) {
            std::vector<global_transition_id> fired;
            (void)sim.apply(in, &fired);
            for (auto g : fired) {
                if (g == p.suspect) {
                    suspect_reached = true;
                } else if (!suspect_reached) {
                    EXPECT_EQ(suspects.count(g), 0u)
                        << "prefix of [" << p.purpose << "] fires suspect "
                        << ex.spec.transition_label(g);
                }
            }
        }
        EXPECT_TRUE(suspect_reached)
            << "[" << p.purpose << "] never exercises its suspect";
    }
}

TEST(proposal_test, ust_output_check_comes_first) {
    // Paper Case 5: "we first check the ust transition ... since output
    // faults are in general easier to be tested".
    const auto ex = paperex::make_paper_example();
    const auto s = run_steps_1_to_5(ex.spec, ex.suite, ex.fault);
    const spec_context ctx(ex.spec, {});
    hypothesis_tracker tracker(ctx.discrim(), s.diagnoses);
    const auto proposals =
        propose_structured_tests(ex.spec, tracker.alive());
    ASSERT_FALSE(proposals.empty());
    EXPECT_EQ(ex.spec.transition_label(proposals.front().suspect), "M1.t7");
    EXPECT_NE(proposals.front().purpose.find("output check"),
              std::string::npos);
}

TEST(proposal_test, proposals_are_reset_prefixed_and_deduplicated) {
    const auto ex = paperex::make_paper_example();
    const auto s = run_steps_1_to_5(ex.spec, ex.suite, ex.fault);
    const spec_context ctx(ex.spec, {});
    hypothesis_tracker tracker(ctx.discrim(), s.diagnoses);
    const auto proposals =
        propose_structured_tests(ex.spec, tracker.alive());
    std::set<std::vector<global_input>> seen;
    for (const auto& p : proposals) {
        ASSERT_FALSE(p.tc.inputs.empty());
        EXPECT_EQ(p.tc.inputs.front().action, global_input::kind::reset);
        EXPECT_TRUE(seen.insert(p.tc.inputs).second)
            << "duplicate proposal " << to_string(p.tc, ex.spec.symbols());
    }
}

TEST(proposal_test, no_proposals_for_single_hypothesis) {
    const system sys = make_pair_system();
    const diagnosis d{tid(sys, 0, "a1"), sys.symbols().lookup("ok2"),
                      std::nullopt};
    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(), {d});
    EXPECT_TRUE(propose_structured_tests(sys, tracker.alive()).empty());
}

TEST(proposal_test, internal_output_suspects_get_reaction_probes) {
    const system sys = make_pair_system();
    // Two live output hypotheses on the hidden internal transition a3.
    const diagnosis d1{tid(sys, 0, "a3"), sys.symbols().lookup("msg2"),
                       std::nullopt};
    const diagnosis d2{tid(sys, 0, "a3"), std::nullopt, state_id{1}};
    const spec_context ctx(sys, {});
    hypothesis_tracker tracker(ctx.discrim(), {d1, d2});
    const auto proposals = propose_structured_tests(sys, tracker.alive());
    ASSERT_FALSE(proposals.empty());
    bool has_reaction = false;
    for (const auto& p : proposals) {
        has_reaction = has_reaction ||
                       p.purpose.find("reaction") != std::string::npos;
    }
    EXPECT_TRUE(has_reaction);
}

TEST(proposal_test, respects_max_proposals_cap) {
    const auto ex = paperex::make_paper_example();
    const auto s = run_steps_1_to_5(ex.spec, ex.suite, ex.fault);
    const spec_context ctx(ex.spec, {});
    hypothesis_tracker tracker(ctx.discrim(), s.diagnoses);
    step6_options opts;
    opts.max_proposals = 1;
    EXPECT_LE(propose_structured_tests(ex.spec, tracker.alive(), opts).size(),
              1u);
}

/// A faulty implementation whose `bad`-th answer (counting from 1) is
/// malformed: one observation short, or ending in an ε output at a port.
class malformed_oracle final : public oracle {
  public:
    enum class flaw { short_answer, port_without_output };

    malformed_oracle(oracle& inner, std::size_t bad, flaw how)
        : inner_(inner), bad_(bad), how_(how) {}

    [[nodiscard]] std::vector<observation> execute(
        const std::vector<global_input>& test) override {
        std::vector<observation> out = inner_.execute(test);
        if (++calls_ == bad_) {
            if (how_ == flaw::short_answer) {
                out.pop_back();
            } else {
                out.back() = observation::at(machine_id{0}, symbol{});
            }
        }
        return out;
    }
    [[nodiscard]] std::size_t executions() const noexcept override {
        return inner_.executions();
    }
    [[nodiscard]] std::size_t inputs_applied() const noexcept override {
        return inner_.inputs_applied();
    }

  private:
    oracle& inner_;
    std::size_t bad_;
    flaw how_;
    std::size_t calls_ = 0;
};

/// Runs `diagnose_with` on an oracle whose `bad`-th answer has `how`'s
/// flaw, and expects the check of that answer to throw.
template <class Diagnose>
void expect_malformed_answer_refused(Diagnose&& diagnose_with,
                                     std::size_t bad,
                                     malformed_oracle::flaw how,
                                     oracle& inner) {
    malformed_oracle iut(inner, bad, how);
    try {
        diagnose_with(iut);
        ADD_FAILURE() << "answer #" << bad << " was accepted";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("oracle returned"),
                  std::string::npos)
            << e.what();
    }
}

/// Diagnoses the paper's fault, under Table 1's suite, on oracles whose
/// answer #1 (a suite case) or #(suite size + 1) (the first Step 6 test)
/// has `how`'s flaw, through diagnose() and diagnose_multi(): each must
/// refuse the answer.
void expect_refused_on_every_path(malformed_oracle::flaw how) {
    const auto ex = paperex::make_paper_example();
    const std::size_t suite_size = ex.suite.size();
    const auto single = [&](oracle& iut) {
        (void)diagnose(ex.spec, ex.suite, iut);
    };
    const auto multi = [&](oracle& iut) {
        multi_fault_options options;
        options.max_hypotheses = 3000;
        (void)diagnose_multi(ex.spec, ex.suite, iut, options);
    };
    {
        // Both paths do reach Step 6 on this fault.
        simulated_iut clean(ex.spec, ex.fault);
        single(clean);
        ASSERT_GT(clean.executions(), suite_size);
        simulated_multi_iut clean_multi(ex.spec, {{ex.fault}});
        multi(clean_multi);
        ASSERT_GT(clean_multi.executions(), suite_size);
    }
    for (const std::size_t bad : {std::size_t{1}, suite_size + 1}) {
        SCOPED_TRACE("answer #" + std::to_string(bad));
        simulated_iut iut(ex.spec, ex.fault);
        expect_malformed_answer_refused(single, bad, how, iut);
        simulated_multi_iut multi_iut(ex.spec, {{ex.fault}});
        expect_malformed_answer_refused(multi, bad, how, multi_iut);
    }
}

TEST(oracle_answers, short_answers_are_refused) {
    expect_refused_on_every_path(malformed_oracle::flaw::short_answer);
}

TEST(oracle_answers, outputs_must_carry_a_port_and_epsilon_none) {
    expect_refused_on_every_path(
        malformed_oracle::flaw::port_without_output);
}

}  // namespace
}  // namespace cfsmdiag
