// Step 5B's column probe (DESIGN.md §5i).  It lives in a file of its own
// for the reason packed_bfs.cpp and fault_dictionary.cpp do: code added to
// compiled.cpp changes how GCC compiles the replayer's hot loops there.
#include <algorithm>

#include "diag/compiled.hpp"
#include "util/error.hpp"

namespace cfsmdiag {

// The hypotheses of a column share the target, its output and its
// destination, so their replays agree on every check up to the target's
// first firing (the prefix lemma), and the firing step's chain is the same
// for all of them until it reaches the target's machine again, the only
// machine whose state they set differently.
template <std::size_t W>
bool flat_replayer::refutes_column(const flat_override& ov) {
    for (std::size_t ci = 0; ci < cases_.size(); ++ci) {
        const case_obs& co = cases_[ci];
        if (co.quarantined) continue;
        const compiled_spec::case_tables& ct = tables_[ci];
        const std::uint32_t ff = ct.first_fire[ov.target];
        if (ff == invalid_index) {
            if (co.first_symptom != invalid_index) return true;
            continue;
        }
        if (co.first_symptom < ff) return true;
        const std::size_t w = cs_->words_in<W>();
        std::uint64_t one_word[1];
        std::uint64_t* const state = W == 1 ? one_word : state_.data();
        std::copy_n(ct.state_before.data() + ff * w, w, state);
        bool target_fired = false;
        bool owner_messaged = false;
        std::uint64_t obs = 0;
        try {
            obs = flat_step<W>(
                *cs_, *spec_, state, ct.in_port[ff], ct.in_sym[ff], &ov, 1,
                nullptr, nullptr,
                owner_message_watch{cs_, &ov, &target_fired, &owner_messaged});
        } catch (const error&) {
            // Each hypothesis's replay throws, or not, on its own.
            return false;
        }
        return !owner_messaged && obs != co.observed[ff];
    }
    return false;
}

bool flat_replayer::refutes_column(const transition_override& ov) {
    const flat_override f = lower_override(*cs_, ov);
    return cs_->words == 1 ? refutes_column<1>(f)
                           : refutes_column<runtime_words>(f);
}

}  // namespace cfsmdiag
