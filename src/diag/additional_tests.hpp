// Step 6: construction of additional diagnostic tests (the paper's
// Figure 2).
//
// For each surviving diagnostic candidate T_k, in the paper's order (the
// ust's output check first — "output faults are in general easier to be
// tested" — then transfer suspects, then internal-output suspects):
//
//   test  =  R  ·  transfer sequence  ·  input(T_k)  ·  probe
//
// where the transfer sequence steers the system to T_k's source state
// *without firing any live diagnostic candidate* (the paper's ambiguity
// rule), and the probe is
//   - nothing, for an external output check (the output shows immediately),
//   - one sequence of the limited characterization set W_k over
//     EndStates(T_k) ∪ {correct end state}, for a transfer check,
//   - one sequence of the distinguishing set U_k applied at the *receiver's*
//     port, for an internal-output check (the receiver's reaction reveals
//     which message type it got).
//
// The generator only proposes; the diagnoser applies the first proposal
// that splits the live hypothesis set (discrim_engine::structured_test) and
// skips those before it (a test that cannot split teaches nothing — it is
// "already included in the initially given test suite" in spirit).
#pragma once

#include <functional>

#include "cfsm/search.hpp"
#include "diag/discriminate.hpp"

namespace cfsmdiag {

/// One proposed additional diagnostic test.
struct proposed_test {
    test_case tc;
    /// The candidate this test probes.
    global_transition_id suspect;
    /// Human-readable purpose, e.g. "transfer check of M3.t''4 (W probe)".
    std::string purpose;
};

struct step6_options {
    global_search_options search;
    /// Upper bound on structured proposals (safety valve).
    std::size_t max_proposals = 500;
};

/// Where the proposals' transfer sequences come from: the shortest input
/// sequence from reset that brings machine `m` to state `s` under `search`,
/// as global_transfer_to_machine_state from the initial global state
/// computes it.  The discrimination engine passes a cached one.
using transfer_search = std::function<std::optional<std::vector<global_input>>(
    machine_id m, state_id s, const global_search_options& search)>;

/// Ordered proposals for the live hypothesis set `alive` (sorted and
/// deduplicated, as hypothesis_tracker::alive holds it).  Candidates whose
/// source state cannot be reached while avoiding live candidates yield no
/// structured proposal (the caller falls back to joint-state search).
/// An empty `find_transfer` searches afresh for every transfer.
[[nodiscard]] std::vector<proposed_test> propose_structured_tests(
    const system& spec, const std::vector<diagnosis>& alive,
    const step6_options& options = {},
    const transfer_search& find_transfer = {});

}  // namespace cfsmdiag
