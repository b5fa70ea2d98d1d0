#include "cfsm/search.hpp"

#include <algorithm>

#include "diag/compiled.hpp"

namespace cfsmdiag {
namespace {

/// The transitions `avoid` names, over the dense ids of `cs`.  An id past
/// its machine's transitions names none, as it never fires.
dyn_bitset avoided(const compiled_spec& cs, const system& spec,
                   const std::vector<global_transition_id>& avoid) {
    dyn_bitset banned(cs.total);
    for (const global_transition_id& t : avoid) {
        if (t.machine.value < spec.machine_count() &&
            t.transition.value < spec.machine(t.machine).transitions().size())
            banned.set(cs.dense_id(t));
    }
    return banned;
}

/// The BFS from the W words at `start`, which fail `goal`: FIFO over the
/// kernel's nodes, columns in order, the goal tested on each newly visited
/// state, giving up once `max_states` states are visited.
template <std::size_t W, typename Goal>
std::optional<std::vector<global_input>> bfs_search(
    const compiled_spec& cs, const system& spec, const std::uint64_t* start,
    const Goal& goal, const global_search_options& options) {
    const dyn_bitset banned = avoided(cs, spec, options.avoid);
    packed_bfs<W> bfs(cs, spec);
    bfs.restart(start);
    const auto cols = static_cast<std::uint32_t>(bfs.columns().size());
    for (std::uint32_t head = 0; head < bfs.size(); ++head) {
        for (std::uint32_t col = 0; col < cols; ++col) {
            const std::vector<std::uint32_t>& fired = bfs.step(head, col);
            if (options.skip_null_steps && fired.empty()) continue;
            if (std::any_of(fired.begin(), fired.end(),
                            [&](std::uint32_t d) { return banned.test(d); }))
                continue;
            if (!bfs.visit()) continue;
            const std::uint32_t fresh = bfs.size() - 1;
            if (goal(bfs.state(fresh))) {
                std::vector<global_input> seq;
                for (const std::uint32_t c : bfs.path(fresh))
                    seq.push_back(bfs.columns()[c]);
                return seq;
            }
            if (bfs.size() >= options.max_states) return std::nullopt;
        }
    }
    return std::nullopt;
}

template <typename Goal>
std::optional<std::vector<global_input>> search(
    const compiled_spec& cs, const system& spec, const std::uint64_t* start,
    const Goal& goal, const global_search_options& options) {
    return cs.words == 1
               ? bfs_search<1>(cs, spec, start, goal, options)
               : bfs_search<runtime_words>(cs, spec, start, goal, options);
}

}  // namespace

std::optional<std::vector<global_input>> global_transfer_to_machine_state(
    const compiled_spec& cs, const system& spec, machine_id m, state_id s,
    const global_search_options& options) {
    const auto goal = [&](const std::uint64_t* st) {
        return cs.field(st, m.value) == s.value;
    };
    if (goal(cs.initial_packed.data())) return std::vector<global_input>{};
    return search(cs, spec, cs.initial_packed.data(), goal, options);
}

system_state initial_global_state(const system& spec) {
    system_state st;
    st.states.reserve(spec.machine_count());
    for (const auto& m : spec.machines())
        st.states.push_back(m.initial_state());
    return st;
}

}  // namespace cfsmdiag
