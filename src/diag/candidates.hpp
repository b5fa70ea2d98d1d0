// Steps 5A and 5B (set construction): initial tentative candidates and their
// split into ustset / FTCtr / FTCco.
//
// Per machine M_i:
//   ITC^i    = intersection of M_i's conflict sets — transitions that could
//              explain *all* symptoms,
//   ustset^i = {ust} if the unique symptom transition lives in ITC^i,
//   FTCtr^i  = ITC^i \ ustset^i — suspects for transfer faults,
//   FTCco^i  = internal-output transitions of ITC^i — suspects for output
//              faults (and output+transfer) whose wrong output is *hidden*
//              in a queue.  This set is the paper's key addition over the
//              single-FSM case: an internal transition's output fault never
//              shows at its own port, so it must be suspected separately.
#pragma once

#include "diag/conflict.hpp"

namespace cfsmdiag {

struct candidate_sets {
    /// Per machine, sorted.
    std::vector<std::vector<transition_id>> itc;
    std::vector<std::vector<transition_id>> ftc_tr;
    std::vector<std::vector<transition_id>> ftc_co;
    /// The ust if it is contained in its machine's ITC.
    std::optional<global_transition_id> ust;

    /// Union of all per-machine candidate transitions (global ids).
    [[nodiscard]] std::vector<global_transition_id> all() const;
};

}  // namespace cfsmdiag
