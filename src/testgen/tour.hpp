// Global transition tour.
//
// One test case that exercises every (reachable) transition of every machine
// at least once — the CFSM analogue of Naito/Tsunoyama transition tours.
// Greedy construction: from the current global state, BFS the shortest input
// extension that fires an uncovered transition; append; repeat.  The BFS
// runs on packed_bfs (diag/compiled.hpp) over the spec lowered once per
// tour: inputs in all_port_inputs order, FIFO frontier, ε steps never
// enqueued.  A tour detects every output fault whose transition is covered,
// which makes it the default "detection" suite for the diagnosis campaigns.
#pragma once

#include "testgen/testcase.hpp"

namespace cfsmdiag {

struct tour_result {
    test_suite suite;
    /// Transitions no global input sequence could fire (unreachable given
    /// the initial global state).
    std::vector<global_transition_id> uncovered;
};

/// Builds the tour.  `max_search_states` bounds each extension's BFS: once
/// it has visited that many global states it enqueues no more, but still
/// expands those it has.
[[nodiscard]] tour_result transition_tour(
    const system& spec, std::size_t max_search_states = 200'000);

}  // namespace cfsmdiag
