// Step 4: conflict sets.
//
// For each test case with symptoms and each machine, the conflict set is the
// set of that machine's transitions that the *specification* executes up to
// and including the first-symptom step — "the transitions which are supposed
// to participate in the generation of the symptom outputs".  Under the
// single-transition-fault hypothesis the faulty transition is a member of
// every conflict set of its machine (the IUT behaves exactly like the spec
// until the faulty transition first fires, so the spec prefix contains it).
#pragma once

#include <set>
#include <vector>

#include "diag/symptom.hpp"

namespace cfsmdiag {

/// Conflict sets, indexed [machine][symptomatic-case-ordinal].
struct conflict_sets {
    /// per_machine[m][k] = conflict set of machine m for the k-th
    /// symptomatic test case (ordinal matches
    /// symptom_report::symptomatic_cases).
    std::vector<std::vector<std::set<transition_id>>> per_machine;
};

}  // namespace cfsmdiag
