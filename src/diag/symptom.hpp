// Steps 1-3 of the diagnostic algorithm: expected outputs, execution on the
// IUT, symptom generation.
//
// A symptom is a position where the observed output differs from the
// expected one (Step 3).  The *symptom transition* of a test case is the
// specification transition that was supposed to produce the output at the
// first symptom (Definition 4); if every symptomatic test case has the same
// symptom transition it is the unique symptom transition (ust) and the
// observed output there is the unique symptom output (uso).
//
// Step 4's `flag` is also computed here because it is a property of the
// comparison: flag is true iff discrepancies continue after the position
// immediately following the first symptom (o_{m+2..n} ≠ ô_{m+2..n}) in some
// test case — the hint that the faulty transition corrupted the state
// (transfer component), not just one output.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cfsm/trace.hpp"
#include "fault/oracle.hpp"
#include "testgen/testcase.hpp"

namespace cfsmdiag {

/// One executed test case with everything the later steps need.
struct executed_case {
    std::size_t case_index = 0;
    /// Spec run (inputs + expected).  Shared, not copied: with the traces
    /// of a spec_context it aliases the context's trace of this case and
    /// keeps the context's traces alive.
    std::shared_ptr<const std::vector<trace_step>> trace;
    std::vector<observation> observed;   ///< IUT run
    /// Index of the first differing step, if any.
    std::optional<std::size_t> first_symptom;
    /// All differing step indices.
    std::vector<std::size_t> symptom_steps;
    /// Spec transition that generated the expected output at the first
    /// symptom (the last transition fired in that step); nullopt when the
    /// spec fired nothing there (expected ε).
    std::optional<global_transition_id> symptom_transition;
    /// True when the run's observations could not be trusted (the oracle
    /// reported no majority, or every attempt failed with a transient
    /// error).  Quarantined runs carry no symptoms and are excluded from
    /// the conflict-set intersection and every hypothesis-consistency
    /// check; `observed` is then only a placeholder (ε-filled when the
    /// oracle produced nothing at all).
    bool quarantined = false;
    std::string quarantine_reason;
};

/// Steps 1-3 result.
struct symptom_report {
    std::vector<executed_case> runs;  ///< one per test case, in suite order
    /// Indices of test cases with at least one symptom.  Quarantined runs
    /// never appear here — their "symptoms" are not evidence.
    std::vector<std::size_t> symptomatic_cases;
    /// Indices of quarantined runs (see executed_case::quarantined).
    std::vector<std::size_t> quarantined_cases;
    /// Step 4's flag (see file comment).
    bool flag = false;
    /// The unique symptom transition, if all symptomatic cases agree.
    std::optional<global_transition_id> ust;
    /// The unique symptom output (observed output at the ust), meaningful
    /// only when `ust` is set.  May be ε (observed nothing where output was
    /// expected).
    observation uso;

    [[nodiscard]] bool has_symptoms() const noexcept {
        return !symptomatic_cases.empty();
    }
};

/// Step 1's spec run of every case, indexed like `suite.cases`.  Built by
/// spec_context (diag/spec_context.hpp), which owns the one spec replay a
/// campaign needs; there is no free function to build these ad hoc.
using suite_traces = std::vector<std::vector<trace_step>>;

/// Runs the suite on the spec (Step 1) and the IUT (Step 2) and compares
/// (Step 3).  `precomputed`, when given, must be the spec replay of `suite`
/// (spec_context::traces()) and replaces the Step 1 simulation; each run
/// then shares its case's trace instead of copying it.
[[nodiscard]] symptom_report collect_symptoms(
    const system& spec, const test_suite& suite, oracle& iut,
    const std::shared_ptr<const suite_traces>& precomputed = nullptr);

}  // namespace cfsmdiag
