#include "diag/candidates.hpp"

#include <algorithm>

namespace cfsmdiag {

std::vector<global_transition_id> candidate_sets::all() const {
    std::vector<global_transition_id> out;
    for (std::uint32_t m = 0; m < itc.size(); ++m) {
        for (transition_id t : itc[m]) out.push_back({machine_id{m}, t});
    }
    return out;
}

}  // namespace cfsmdiag
