// Multiple-fault diagnosis — the paper's future work, made concrete.
//
// Section 5: "Another important question is the diagnostics of systems
// having multiple faults, which is known to be a very difficult problem.  A
// possible starting point is to try to solve such a question for at least
// some special classes of multiple faults."  This module implements that
// starting point for the class of faults spanning at most
// `max_faulty_transitions` distinct transitions (default 2), each carrying
// the usual output and/or transfer fault.
//
// The single-fault machinery generalizes directly once hypotheses become
// *sets* of transition overrides:
//   - conflict-set reasoning no longer bounds the candidates (with two
//     faults the intersection argument breaks: the machine's conflict sets
//     may each be witnessed by a different fault), so the hypothesis space
//     ranges over all transition pairs — pruned by replay consistency
//     against the observed suite,
//   - Step 6 becomes pairwise adaptive discrimination: find two live
//     hypotheses, obtain their shortest splitting sequence (joint-state
//     BFS), run it on the IUT, filter, repeat until the live set is
//     observationally homogeneous.
//
// Complexity is the price the paper anticipated: the hypothesis space is
// quadratic in (transitions × per-transition fault options), which the
// options cap (with `truncated_hypotheses` reporting when completeness was
// given up).
#pragma once

#include "diag/diagnoser.hpp"

namespace cfsmdiag {

/// A set of single-transition faults on pairwise-distinct transitions.
struct fault_set {
    std::vector<single_transition_fault> faults;

    [[nodiscard]] std::vector<transition_override> to_overrides() const;

    friend constexpr auto operator<=>(const fault_set&,
                                      const fault_set&) = default;
};

/// Validates the set: each member valid, targets pairwise distinct, size
/// within `max_size`.
void validate_fault_set(const system& spec, const fault_set& fs,
                        std::size_t max_size = 2);

/// IUT oracle carrying a fault set.
class simulated_multi_iut final : public oracle {
  public:
    simulated_multi_iut(const system& spec, const fault_set& faults);

    [[nodiscard]] std::vector<observation> execute(
        const std::vector<global_input>& test) override;
    [[nodiscard]] std::size_t executions() const noexcept override {
        return executions_;
    }
    [[nodiscard]] std::size_t inputs_applied() const noexcept override {
        return inputs_applied_;
    }

  private:
    simulator sim_;
    std::size_t executions_ = 0;
    std::size_t inputs_applied_ = 0;
};

struct multi_fault_options {
    std::size_t max_faulty_transitions = 2;
    /// Hypothesis-space cap; exceeding it sets `truncated_hypotheses`.
    std::size_t max_hypotheses = 50'000;
    std::size_t max_additional_tests = 300;
    std::size_t max_joint_states = 50'000;
};

struct multi_fault_result {
    diagnosis_outcome outcome = diagnosis_outcome::passed;
    /// Live hypotheses at the end (each a fault set of size 1 or 2).
    std::vector<fault_set> final_hypotheses;
    std::size_t initial_hypotheses = 0;
    std::vector<additional_test_record> additional_tests;
    bool truncated_hypotheses = false;

    [[nodiscard]] bool is_localized() const noexcept {
        return outcome == diagnosis_outcome::localized ||
               outcome == diagnosis_outcome::localized_up_to_equivalence;
    }
};

/// Diagnoses an IUT that may have faults in up to
/// `options.max_faulty_transitions` transitions.
[[nodiscard]] multi_fault_result diagnose_multi(
    const system& spec, const test_suite& suite, oracle& iut,
    const multi_fault_options& options = {});

/// Renders a fault set like "{M1.t3: output fault ...; M2.t'1: ...}".
[[nodiscard]] std::string describe(const system& spec, const fault_set& fs);

}  // namespace cfsmdiag
