// The reference pipeline, kept as the tests' oracle (library
// cfsmdiag_ref_oracle, linked by every test): the paper's Steps 4-6
// computed on the reference simulator, with std::set algebra and full
// replays.  diagnose() runs none of it.  Step 5B and Step 6 predict a
// hypothesis's outputs on the compiled tables only (diag/compiled.hpp);
// these functions are what the tests hold them to.
//
//   Steps 4-5A   generate_conflict_sets, generate_candidates;
//   Steps 5B-5C  hypothesis_consistent (the paper's replay from reset, or
//                through a replay_cache), end_states, consistent_outputs,
//                consistent_statout, consistent_destinations and the flag
//                routing of evaluate_candidates(_escalated);
//   Step 6       splitting_sequence, the joint search stepping one
//                simulator per hypothesis and the spec before each, and
//                sequence_replay, a prefix-skipping prediction of one
//                input sequence;
//   replay_cache the prefix lemma on the reference simulator (DESIGN.md
//                §5c), over a symptom report's suite cases.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "cfsmdiag.hpp"

namespace cfsmdiag::ref_oracle {

// --- Steps 4-5A -----------------------------------------------------------

[[nodiscard]] conflict_sets generate_conflict_sets(
    const system& spec, const symptom_report& report);

[[nodiscard]] candidate_sets generate_candidates(const system& spec,
                                                 const symptom_report& report,
                                                 const conflict_sets& confl);

// --- the replay cache -----------------------------------------------------

/// Replay accelerator for one (spec, suite, symptom report) triple: for
/// every case, each transition's firing steps on the spec run and the spec
/// state before every step, from the Step 1 traces the report carries.  A
/// hypothesis on T is consistent with a case where T never fires iff the
/// case had no symptom; otherwise the case is simulated from T's first
/// firing, re-synchronizing with the spec run where possible.  Holds
/// references only; the spec, suite and report must outlive it.
class replay_cache {
  public:
    [[nodiscard]] const system& spec() const noexcept { return *spec_; }
    [[nodiscard]] std::size_t case_count() const noexcept {
        return cases_.size();
    }

    /// Same verdict as hypothesis_consistent(spec, suite, report, ov).
    [[nodiscard]] bool consistent(const transition_override& ov) const;

    /// Several overrides at once: the prefix lemma applies up to the
    /// earliest first firing of any target.
    [[nodiscard]] bool consistent(
        const std::vector<transition_override>& ovs) const;

    /// First step of case `ci` at which `t` fires on the spec run.
    [[nodiscard]] std::optional<std::size_t> first_firing(
        std::size_t ci, global_transition_id t) const;

    /// Spec state at the beginning of that step.  Requires
    /// first_firing(ci, t) to be engaged.
    [[nodiscard]] const system_state& snapshot(std::size_t ci,
                                               global_transition_id t) const;

  private:
    replay_cache(const system& spec, const test_suite& suite,
                 const symptom_report& report);
    friend replay_cache make_replay_cache(const spec_context& ctx,
                                          const symptom_report& report);

    struct case_data {
        std::vector<std::uint32_t> first_fire;
        std::vector<std::vector<std::uint32_t>> fire_steps;
        std::vector<system_state> states;
        /// (state, input) class representative per step.
        std::vector<std::uint32_t> rep;
        std::optional<std::size_t> first_symptom;
    };

    [[nodiscard]] std::uint32_t dense_id(global_transition_id t) const;
    [[nodiscard]] bool suffix_consistent(
        std::size_t ci, std::uint32_t f, simulator& sim,
        const std::vector<std::uint32_t>& targets) const;

    const system* spec_;
    const test_suite* suite_;
    const symptom_report* report_;
    std::vector<std::uint32_t> machine_offset_;
    std::uint32_t total_transitions_ = 0;
    std::vector<case_data> cases_;
};

/// The replay cache of one report, which must have been collected against
/// the context's suite.
[[nodiscard]] replay_cache make_replay_cache(const spec_context& ctx,
                                             const symptom_report& report);

/// Prefix-skipping prediction of one input sequence on the reference
/// simulator: built from one spec replay of `inputs`, predict()/matches()
/// simulate only from each hypothesis's first firing step.
class sequence_replay {
  public:
    sequence_replay(const system& spec,
                    const std::vector<global_input>& inputs);

    /// Equals observe(spec, inputs, ov).
    [[nodiscard]] std::vector<observation> predict(
        const transition_override& ov) const;

    /// Equals predict(ov) == observed.
    [[nodiscard]] bool matches(
        const transition_override& ov,
        const std::vector<observation>& observed) const;

  private:
    const system* spec_;
    const std::vector<global_input>* inputs_;
    std::vector<observation> expected_;
    std::vector<std::uint32_t> machine_offset_;
    std::uint32_t total_transitions_ = 0;
    std::vector<std::uint32_t> first_fire_;
    std::vector<std::vector<std::uint32_t>> fire_steps_;
    std::vector<system_state> states_;
};

// --- Steps 5B-5C ----------------------------------------------------------

/// True iff the mutated spec reproduces the IUT's observed outputs on every
/// trusted test case of the report: the paper's replay from reset, or
/// through `cache` when it is non-null.  Counts one hypothesis_replays().
[[nodiscard]] bool hypothesis_consistent(const system& spec,
                                         const test_suite& suite,
                                         const symptom_report& report,
                                         const transition_override& ov,
                                         const replay_cache* cache = nullptr);

/// findendingstates for one transition.
[[nodiscard]] std::vector<state_id> end_states(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const replay_cache* cache = nullptr);

/// calouts over an explicit pool (entries equal to the specified output
/// are skipped).
[[nodiscard]] std::vector<symbol> consistent_outputs(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const std::vector<symbol>& pool,
    const replay_cache* cache = nullptr);

/// processtate&out: (state, output) couples, state ≠ NextState(T), output
/// from `pool` (≠ specified output).
[[nodiscard]] std::vector<std::pair<state_id, symbol>> consistent_statout(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const std::vector<symbol>& pool,
    const replay_cache* cache = nullptr);

/// Addressing extension: destinations d ≠ the specified one such that "T
/// sends its message to M_d" explains all observations.
[[nodiscard]] std::vector<machine_id> consistent_destinations(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const replay_cache* cache = nullptr);

/// Steps 5B + 5C with the paper's flag routing.
[[nodiscard]] diagnostic_candidates evaluate_candidates(
    const system& spec, const test_suite& suite, const symptom_report& report,
    const candidate_sets& cands, const replay_cache* cache = nullptr);

/// Every ITC member against the full single-transition hypothesis space,
/// plus the addressing hypotheses when `include_addressing` is set.
[[nodiscard]] diagnostic_candidates evaluate_candidates_escalated(
    const system& spec, const test_suite& suite, const symptom_report& report,
    const candidate_sets& cands, bool include_addressing = false,
    const replay_cache* cache = nullptr);

// --- Step 6 ---------------------------------------------------------------

/// The shortest input sequence from reset on which two of the hypotheses
/// (each a set of overrides; the empty set is the spec) disagree, by BFS
/// over their joint states with one simulator per hypothesis, the spec
/// stepped before each; nullopt when they are equivalent within the cap.
[[nodiscard]] std::optional<std::vector<global_input>> splitting_sequence(
    const system& spec,
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states = 100'000);

}  // namespace cfsmdiag::ref_oracle
