// Step 5B (hypothesis evaluation) + Step 5C (diagnostic candidates and
// diagnoses).
//
// Routing follows the paper:
//  - the ust is checked for an output fault equal to the observed uso
//    (flag = false) or for (state, uso) double-fault couples (flag = true),
//  - FTCtr members are checked for transfer faults (EndStates),
//  - FTCco members (internal-output transitions) are checked for output
//    faults over OIO_{i>j} (flag = false) or for (state, output) couples
//    (flag = true).
// Transitions whose every hypothesis set comes back empty are *correct* and
// are removed; the survivors are the diagnostic candidates DCtr / DCco /
// ustset, and each surviving hypothesis is a diagnosis.
//
// `escalate` widens the search to the full single-transition hypothesis
// space (EndStates ∪ outputs ∪ statout for every ITC member).  The paper's
// flag-based routing can miss two corner cases — a both-fault internal
// transition when the flag stayed false, and a ust whose fault is actually a
// transfer — so the diagnoser escalates when the routed pass finds nothing
// (documented deviation; see DESIGN.md §5).
#pragma once

#include "diag/candidates.hpp"
#include "diag/compiled.hpp"
#include "diag/hypotheses.hpp"
#include "fault/fault.hpp"

namespace cfsmdiag {

/// A diagnosis is exactly a concrete single-transition fault hypothesis.
using diagnosis = single_transition_fault;

/// Computed hypothesis sets for one candidate transition (kept even when
/// empty, for reporting the full Step 5B picture).
struct evaluated_candidate {
    global_transition_id id;
    std::vector<state_id> end_states;                    ///< EndStates(T)
    std::vector<symbol> outputs;                         ///< outputs(T)
    std::vector<std::pair<state_id, symbol>> statout;    ///< statout(T)
    /// Addressing extension: consistent wrong destinations (only ever
    /// filled when the diagnoser opts into addressing faults).
    std::vector<machine_id> destinations;
    bool is_ust = false;

    [[nodiscard]] bool correct() const noexcept {
        return end_states.empty() && outputs.empty() && statout.empty() &&
               destinations.empty();
    }
};

struct diagnostic_candidates {
    /// Every ITC member with its computed sets (reporting view).
    std::vector<evaluated_candidate> evaluated;
    /// Step 5C survivors: indices into `evaluated` forming DCtr (non-empty
    /// EndStates), DCco (non-empty outputs or statout), and the ust if it
    /// survived.
    std::vector<std::size_t> dctr;
    std::vector<std::size_t> dcco;
    std::optional<std::size_t> ust;

    /// All concrete diagnoses, deterministic order.
    [[nodiscard]] std::vector<diagnosis> diagnoses() const;
};

/// Steps 5B + 5C with the paper's flag routing, on `replayer` (built over
/// the same report), with the admissible pools precomputed in `cs`.  The
/// hypotheses are walked in the paper's enumeration order; those the
/// replayer flags, and those without a dictionary slot, are replayed, and
/// the rest are charged without a replay, so hypothesis_replays(), budget
/// polls and verdicts are those of a replay of every hypothesis
/// (DESIGN.md §5i).
[[nodiscard]] diagnostic_candidates evaluate_candidates(
    const compiled_spec& cs, flat_replayer& replayer,
    const symptom_report& report, const candidate_sets& cands);

/// Full-width pass: every ITC member gets EndStates, outputs (over its
/// admissible pool) and statout — plus, when `include_addressing` is set,
/// the wrong-destination hypotheses of the addressing extension.  Complete
/// for the single-transition fault model: the true fault's hypothesis is
/// always consistent, so it is found.  Walks its hypotheses as
/// evaluate_candidates does.
[[nodiscard]] diagnostic_candidates evaluate_candidates_escalated(
    const compiled_spec& cs, flat_replayer& replayer,
    const symptom_report& report, const candidate_sets& cands,
    bool include_addressing = false);

/// The paper's Step 6 case analysis (Cases 1-5), over the Step 5C result:
///   1 — ust with a singleton outputs set, everything else empty: the ust
///       has that output fault, no further tests needed;
///   2 — ust with a singleton statout set, everything else empty: output
///       fault uso plus the transfer of the statout couple;
///   3 — no ust; exactly one surviving candidate with exactly one
///       hypothesis: that is the fault;
///   4 — no ust; several candidates or hypotheses: additional tests choose;
///   5 — ust plus other surviving candidates: check the ust first, then
///       proceed as Case 4.
enum class step6_case : std::uint8_t {
    /// Nothing survived Step 5C (paper-undefined; the diagnoser escalates).
    none,
    case1,
    case2,
    case3,
    case4,
    case5,
};

[[nodiscard]] std::string to_string(step6_case c);

[[nodiscard]] step6_case classify_step6(const diagnostic_candidates& dc);

}  // namespace cfsmdiag
