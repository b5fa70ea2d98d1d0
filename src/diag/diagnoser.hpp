// The complete diagnostic algorithm (paper Section 3, Steps 1-6).
//
// diagnose() drives the whole pipeline against a black-box IUT:
//
//   1-3. run the suite, compare, collect symptoms (diag/symptom.hpp)
//   4.   conflict sets                         (diag/conflict.hpp)
//   5A/B. candidate sets + hypothesis replay   (diag/candidates.hpp,
//                                               diag/diagnosis.hpp)
//   5C.  diagnostic candidates and diagnoses
//   6.   adaptive additional tests: structured proposals in the paper's
//        shape first (diag/additional_tests.hpp), then — if suspects remain
//        that the structured tests cannot separate — a joint-state search
//        for a splitting sequence (diag/discriminate.hpp)
//
// Termination guarantee: when the IUT really has at most one faulty
// transition, the true hypothesis is always live (Step 5B replay accepts it
// by construction, escalation keeps it in even when the paper's flag
// routing would drop it), so the loop ends with either exactly one live
// hypothesis (localized) or a set of observationally equivalent ones
// (localized up to equivalence — the best any black-box diagnosis can do).
#pragma once

#include "diag/additional_tests.hpp"
#include "diag/spec_context.hpp"
#include "util/budget.hpp"

namespace cfsmdiag {

enum class diagnosis_outcome : std::uint8_t {
    /// No symptoms: the suite does not detect any fault.
    passed,
    /// Exactly one hypothesis survived.
    localized,
    /// Several observationally-equivalent hypotheses survived.
    localized_up_to_equivalence,
    /// Distinguishable hypotheses remain (budget exhausted).
    ambiguous,
    /// No single-transition fault explains the observations (fault model
    /// violated, or the IUT is nondeterministic).
    no_consistent_hypothesis,
    /// The lab was too unreliable to commit to a verdict: every usable
    /// (trusted) run was clean but some runs had to be quarantined, or the
    /// surviving-hypothesis picture was shaped by quarantined evidence.
    /// Never counts as a detection — degraded evidence must not turn into
    /// a misdiagnosis.
    inconclusive_unreliable,
    /// The run's resource budget (deadline / step quota / memory quota,
    /// util/budget.hpp) ran out before the surviving hypotheses could be
    /// separated or proven equivalent, and the degradation ladder's cheaper
    /// rungs could not finish either.  `final_diagnoses` still holds the
    /// undiscriminated candidate set — the true hypothesis is inside it —
    /// but the verdict refuses to claim detection or localization.  A
    /// budget stop may only *widen* a verdict toward inconclusive, never
    /// flip it (DESIGN.md §5h).
    inconclusive_resource,
};

[[nodiscard]] std::string to_string(diagnosis_outcome outcome);

/// One executed additional diagnostic test.
struct additional_test_record {
    test_case tc;
    std::string purpose;
    std::vector<observation> expected;  ///< on the unmutated spec
    std::vector<observation> observed;  ///< on the IUT
    std::size_t eliminated = 0;         ///< hypotheses killed by this test
    bool from_fallback = false;
    /// True when the run was untrusted (no majority / all attempts failed);
    /// its observations were NOT applied to the live hypothesis set.
    bool quarantined = false;
    std::string quarantine_reason;
};

/// Reliability picture of one diagnose() run over an unreliable lab.  All
/// zeros (and trusted everywhere) when the oracle never reported trouble.
struct reliability_summary {
    std::size_t quarantined_cases = 0;  ///< suite runs excluded as untrusted
    std::size_t quarantined_tests = 0;  ///< Step-6 tests excluded
    std::size_t attempts = 0;           ///< total lab attempts (when known)
    std::size_t retries = 0;            ///< attempts beyond the first
    std::size_t transient_failures = 0; ///< attempts lost to lab faults
    std::size_t untrusted_runs = 0;     ///< runs with no usable majority
    /// Distinct quarantine reasons, in first-seen order (for the report).
    std::vector<std::string> reasons;

    /// True when any evidence had to be discarded.
    [[nodiscard]] bool degraded() const noexcept {
        return quarantined_cases > 0 || quarantined_tests > 0;
    }
};

/// Wall-clock spent in each stage of one diagnose() run, in seconds.
/// Informational only — never part of equality or serialized state, so
/// results stay deterministic across machines and thread counts.
struct stage_timings {
    double symptoms = 0.0;        ///< Steps 1-3 (suite execution + compare)
    double conflicts = 0.0;       ///< Step 4 (conflict sets)
    double candidates = 0.0;      ///< Step 5A (ITC/FTCtr/FTCco/ustset)
    double evaluation = 0.0;      ///< Steps 5B-5C (hypothesis replay +
                                  ///< survivors, incl. replay-accelerator
                                  ///< construction)
    double discrimination = 0.0;  ///< Step 6 (additional tests + verdict,
                                  ///< incl. any mid-loop escalation)

    [[nodiscard]] double total() const noexcept {
        return symptoms + conflicts + candidates + evaluation +
               discrimination;
    }

    stage_timings& operator+=(const stage_timings& o) noexcept {
        symptoms += o.symptoms;
        conflicts += o.conflicts;
        candidates += o.candidates;
        evaluation += o.evaluation;
        discrimination += o.discrimination;
        return *this;
    }
};

struct diagnosis_result {
    diagnosis_outcome outcome = diagnosis_outcome::passed;
    symptom_report symptoms;
    conflict_sets conflicts;
    candidate_sets candidates;
    diagnostic_candidates evaluated;
    /// Diagnoses after Step 5C (before additional tests).
    std::vector<diagnosis> initial_diagnoses;
    /// Live hypotheses at the end.
    std::vector<diagnosis> final_diagnoses;
    std::vector<additional_test_record> additional_tests;
    bool used_escalation = false;
    bool used_fallback_search = false;
    stage_timings timings;
    reliability_summary reliability;

    /// Total inputs applied by additional tests (the paper's cost metric).
    [[nodiscard]] std::size_t additional_inputs() const noexcept;
    [[nodiscard]] bool is_localized() const noexcept {
        return outcome == diagnosis_outcome::localized ||
               outcome == diagnosis_outcome::localized_up_to_equivalence;
    }
};

/// How Step 5B routes hypothesis checks.
enum class evaluation_mode : std::uint8_t {
    /// The paper's exact routing: the ust is checked against the uso only
    /// (outputs when flag = false, statout when flag = true), FTCtr members
    /// against EndStates, FTCco members against outputs/statout by flag.
    /// This can drop the true hypothesis in corner cases (e.g. a pure
    /// output fault whose symptom recurs sets flag = true, and statout
    /// excludes output-only couples); the diagnoser compensates by
    /// escalating to the full space when the routed pass finds nothing or
    /// when every routed hypothesis is later refuted.
    paper_flag_routing,
    /// Evaluate every ITC member against the full single-transition
    /// hypothesis space (EndStates ∪ outputs ∪ statout).  Complete: the
    /// true hypothesis always survives Step 5B.  Costs roughly 3× the
    /// replays of the routed pass.  Default.
    complete,
};

struct diagnoser_options {
    evaluation_mode evaluation = evaluation_mode::complete;
    /// Also hypothesize addressing faults (wrong destination machine) for
    /// internal-output candidates — the extension the paper's §5
    /// recommends.  Off by default: the paper's fault model fixes the
    /// address component.  Only effective with complete evaluation (or
    /// after escalation).
    bool include_addressing_faults = false;
    /// Generate paper-shaped additional tests (Step 6 / Figure 2).
    bool structured_step6 = true;
    /// Search the joint hypothesis space when structured tests run dry.
    bool fallback_search = true;
    /// Re-evaluate with the full hypothesis space if the flag-routed pass
    /// finds nothing (see diag/diagnosis.hpp).
    bool escalate_if_empty = true;
    std::size_t max_additional_tests = 200;
    /// Visited-state bound of each joint splitting-sequence search
    /// (`campaign --max-joint-states`).  A search that hits the bound
    /// conservatively reports "no splitting sequence".
    std::size_t max_joint_states = 100'000;
    step6_options step6;
    /// Optional resource budget governing this diagnosis.  Installed for
    /// the calling thread for the duration of diagnose(); the pipeline's
    /// deep loops poll it.  Exhaustion triggers the degradation ladder —
    /// Step 6 as configured → Step 6 with a tighter joint-state cap → skip
    /// discrimination and report `inconclusive_resource` — so
    /// the result is always a classified verdict.  External cancellation
    /// through the budget's cancel_token is *not* absorbed: it propagates
    /// as cancelled_error for the caller to classify.  Not owned; must
    /// outlive the call.  nullptr (default) reproduces the exact
    /// pre-budget behaviour.
    const run_budget* budget = nullptr;
};

/// Runs the full algorithm against a prepared spec_context.  The oracle is
/// consulted once per suite case plus once per applied additional test.
/// This is the primary entry point: the context's compiled tables and
/// Step-1 traces are shared across every diagnosis (a campaign builds one
/// context for all faults).  The input alone picks the path: Steps 4-5C run
/// on the compiled core when the system's states pack into 64 bits
/// (`ctx.compiled().packable`) and on the reference Steps with a
/// replay_cache otherwise; Step 6 always runs through `ctx.discrim()`.
[[nodiscard]] diagnosis_result diagnose(const spec_context& ctx, oracle& iut,
                                        const diagnoser_options& options = {});

/// Convenience overload for one-shot calls: builds a spec_context from
/// (spec, suite) inline — replaying the suite and compiling the tables per
/// call — then diagnoses.  `precomputed`, when given, must be the spec
/// replay of `suite` and spares the Step-1 simulation.  Repeated callers
/// should hold a spec_context instead.
[[nodiscard]] diagnosis_result diagnose(
    const system& spec, const test_suite& suite, oracle& iut,
    const diagnoser_options& options = {},
    const suite_traces* precomputed = nullptr);

/// Multi-line human-readable report of a diagnosis run.
[[nodiscard]] std::string summarize(const system& spec,
                                    const diagnosis_result& result);

}  // namespace cfsmdiag
