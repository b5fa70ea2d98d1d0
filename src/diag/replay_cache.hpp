// Incremental hypothesis replay (the Step 5B/6 hot path, accelerated).
//
// Every hypothesis check re-runs the test suite against spec ⊕ override.
// But a run under a transition override is *provably identical* to the
// specification run until the overridden transition first fires: an
// override changes only the effects (output, next state, destination) of
// its target, never the (state, input) → transition relation, so before the
// target fires the mutated system visits the same states, exchanges the
// same messages, and emits the same outputs as the spec — including through
// ε steps (unspecified pairs leave the state unchanged in both) and resets
// (which re-synchronize both runs to the initial state).  DESIGN.md §5c
// gives the full argument.
//
// `replay_cache` exploits that prefix lemma.  Built once per symptom report
// — from the Step 1 traces the report already carries, so construction
// simulates nothing — it records for every test case tc
//   - the *firing index*: every step of tc at which each global transition
//     T fires on the spec run, and
//   - the spec run's `system_state` at the beginning of every step.
// A hypothesis on T is then checked per case as
//   - T never fires in tc  → the mutated run equals the spec run on all of
//     tc, so consistency is just "tc had no symptom" — already known, zero
//     simulation;
//   - T first fires at step f → the prefix [0, f) is consistent iff tc has
//     no symptom before f (already known); the suffix is simulated from
//     the step-f state with early exit on the first mismatch.
// The suffix simulation additionally *re-synchronizes*: the same lemma
// applied from any mid-run step says that whenever the mutated run's state
// equals the spec state at the same step, the two runs are identical until
// T next fires — so the segment up to that firing is resolved by a symptom
// lookup and skipped outright.  Output-only faults on external-output
// transitions re-synchronize immediately after every firing (the override
// never touches the state), collapsing their checks to one simulated step
// per firing.
// The verdict is exactly the uncached hypothesis_consistent()'s, per case
// and per step, so diagnoses equal the paper's full-replay procedures.
//
// `sequence_replay` is the single-sequence sibling used by Step 6's
// hypothesis_tracker: it predicts observations of one input sequence under
// an override by reusing the spec's expected outputs for the prefix.
#pragma once

#include "cfsm/trace.hpp"
#include "diag/symptom.hpp"

namespace cfsmdiag {

/// Per-thread counters (same pattern as hypothesis_replays()): test cases
/// resolved by the prefix lemma alone (zero simulated steps) and suffix
/// replays performed (snapshot restore + partial simulation).
[[nodiscard]] std::size_t replay_cache_case_skips() noexcept;
[[nodiscard]] std::size_t replay_cache_suffix_replays() noexcept;

namespace detail {
/// Counter hooks for the compiled core (diag/compiled.hpp): flat_replayer
/// resolves cases by the same prefix lemma without going through
/// replay_cache, and bumps the same thread-local counters so campaign
/// metrics agree across paths.
void note_replay_case_skip() noexcept;
void note_replay_suffix() noexcept;
}  // namespace detail

/// Replay accelerator for one (spec, suite, symptom report) triple.
///
/// Holds references only — spec, suite and report must outlive the cache.
/// Immutable after construction apart from the thread-local counters, so a
/// cache may be shared by const reference within one diagnosis; campaign
/// workers each build their own (the report is per-IUT anyway).
class replay_cache {
  public:
    [[nodiscard]] const system& spec() const noexcept { return *spec_; }
    [[nodiscard]] std::size_t case_count() const noexcept {
        return cases_.size();
    }

    /// Same verdict as hypothesis_consistent(spec, suite, report, ov) —
    /// cases in suite order, early exit on the first inconsistent step.
    [[nodiscard]] bool consistent(const transition_override& ov) const;

    /// Multi-override variant (diag/multi_fault.cpp's hypothesis sets):
    /// the prefix lemma applies up to the *earliest* first firing of any
    /// target.
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
    /// Construction goes through spec_context::make_replay_cache(): the
    /// context guarantees the report was collected against its suite, which
    /// is the precondition every accessor relies on.
    replay_cache(const system& spec, const test_suite& suite,
                 const symptom_report& report);
    friend class spec_context;

    struct case_data {
        /// Dense per-transition first firing step; invalid_index = never.
        std::vector<std::uint32_t> first_fire;
        /// Dense per-transition sorted firing-step lists (empty = never;
        /// front() == first_fire for firing transitions).
        std::vector<std::vector<std::uint32_t>> fire_steps;
        /// Spec state at the beginning of each step; states[k] precedes
        /// inputs[k] (the final state is never needed: every restart
        /// point precedes at least one remaining step).
        std::vector<system_state> states;
        /// (state, input) class representative per step: rep[k] is the
        /// earliest step with the same before-state and input.  A mutated
        /// run entering two same-class steps in sync with the spec behaves
        /// identically in both, so the suffix simulation memoizes firing
        /// effects per class.
        std::vector<std::uint32_t> rep;
        /// First symptomatic step of the case, if any (from the report).
        std::optional<std::size_t> first_symptom;
    };

    [[nodiscard]] std::uint32_t dense_id(global_transition_id t) const;

    /// Simulates case `ci` from step `f` under `sim`'s override(s),
    /// re-synchronizing with the cached spec run where possible.
    [[nodiscard]] bool suffix_consistent(
        std::size_t ci, std::uint32_t f, simulator& sim,
        const std::vector<std::uint32_t>& targets) const;

    const system* spec_;
    const test_suite* suite_;
    const symptom_report* report_;
    /// dense_id(t) = machine_offset_[t.machine] + t.transition.
    std::vector<std::uint32_t> machine_offset_;
    std::uint32_t total_transitions_ = 0;
    std::vector<case_data> cases_;
};

/// Prefix-skipping prediction for one input sequence (Step 6's adaptive
/// discrimination replays every live hypothesis on the same proposed test).
/// Built from one spec replay of `inputs`; predict()/matches() then
/// simulate only from each hypothesis's first firing step.
class sequence_replay {
  public:
    sequence_replay(const system& spec,
                    const std::vector<global_input>& inputs);

    /// Equals observe(spec, inputs, ov).
    [[nodiscard]] std::vector<observation> predict(
        const transition_override& ov) const;

    /// Equals predict(ov) == observed, with early exit (no vector built).
    [[nodiscard]] bool matches(
        const transition_override& ov,
        const std::vector<observation>& observed) const;

  private:
    const system* spec_;
    const std::vector<global_input>* inputs_;
    std::vector<observation> expected_;  ///< spec outputs of `inputs`
    std::vector<std::uint32_t> machine_offset_;
    std::uint32_t total_transitions_ = 0;
    std::vector<std::uint32_t> first_fire_;
    std::vector<std::vector<std::uint32_t>> fire_steps_;
    std::vector<system_state> states_;  ///< spec state before each step
};

}  // namespace cfsmdiag
