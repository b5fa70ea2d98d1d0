// BFS over the global state space.
//
// Shared search engine behind test generation and the diagnoser's
// additional-test construction (Step 6): find a shortest global input
// sequence from reset to a state where one machine is in a given state,
// optionally *avoiding* a set of transitions — the paper requires
// additional diagnostic tests to "not involve any candidate transition in
// any of the DCtr or DCco sets".  The search runs on packed_bfs (diag/compiled.hpp), the kernel it
// shares with the transition tour: inputs in all_port_inputs order, FIFO
// frontier, the goal tested on each newly visited state.
#pragma once

#include <optional>
#include <vector>

#include "cfsm/simulator.hpp"

namespace cfsmdiag {

struct compiled_spec;

struct global_search_options {
    /// Transitions that must not fire anywhere along the sequence.
    std::vector<global_transition_id> avoid;
    /// Visited-set size bound: the search gives up once it has visited
    /// this many states.
    std::size_t max_states = 200'000;
    /// Skip ε steps (unspecified inputs) while searching; they never change
    /// state, so they are never useful in a transfer sequence.
    bool skip_null_steps = true;
};

/// Shortest input sequence from the initial global state that brings
/// machine `m` to state `s` without firing avoided transitions, on `cs`, a
/// lowering of `spec` (compile_spec(spec, {}, {}) will do), so that a
/// caller with many transfers to find lowers the spec once.  Returns
/// nullopt if no such sequence exists within the bound, and the empty
/// sequence if the initial state already satisfies the goal.
[[nodiscard]] std::optional<std::vector<global_input>>
global_transfer_to_machine_state(const compiled_spec& cs, const system& spec,
                                 machine_id m, state_id s,
                                 const global_search_options& options = {});

/// The global state after reset.
[[nodiscard]] system_state initial_global_state(const system& spec);

}  // namespace cfsmdiag
