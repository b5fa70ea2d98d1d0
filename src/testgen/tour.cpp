#include "testgen/tour.hpp"

#include <algorithm>

#include "diag/compiled.hpp"

namespace cfsmdiag {
namespace {

/// Appends extensions to `tour` until every transition is covered or none
/// is reachable from the current global state.  `uncovered` holds dense
/// ids of `cs`.
template <std::size_t W>
void extend_tour(const compiled_spec& cs, const system& spec,
                 std::size_t max_search_states, dyn_bitset& uncovered,
                 std::vector<global_input>& tour) {
    packed_bfs<W> bfs(cs, spec);
    const auto cols = static_cast<std::uint32_t>(bfs.columns().size());
    std::size_t left = uncovered.count();

    // BFS from the current global state for the shortest extension whose
    // final step fires at least one uncovered transition.
    const auto find_extension = [&](const std::uint64_t* start)
        -> std::optional<std::vector<std::uint32_t>> {
        bfs.restart(start);
        for (std::uint32_t head = 0; head < bfs.size(); ++head) {
            for (std::uint32_t col = 0; col < cols; ++col) {
                const std::vector<std::uint32_t>& fired = bfs.step(head, col);
                if (std::any_of(fired.begin(), fired.end(),
                                [&](std::uint32_t d) {
                                    return uncovered.test(d);
                                })) {
                    std::vector<std::uint32_t> ext = bfs.path(head);
                    ext.push_back(col);
                    return ext;
                }
                if (fired.empty()) continue;  // ε step: no progress
                if (bfs.size() >= max_search_states) continue;
                (void)bfs.visit();
            }
        }
        return std::nullopt;
    };

    std::vector<std::uint64_t> cursor = cs.initial_packed;
    while (left != 0) {
        const auto ext = find_extension(cursor.data());
        if (!ext) break;  // nothing more reachable from here or anywhere
        for (const std::uint32_t col : *ext) {
            for (const std::uint32_t d : bfs.advance(cursor.data(), col)) {
                if (!uncovered.test(d)) continue;
                uncovered.clear(d);
                --left;
            }
            tour.push_back(bfs.columns()[col]);
        }
    }
}

}  // namespace

tour_result transition_tour(const system& spec,
                            std::size_t max_search_states) {
    const compiled_spec cs = compile_spec(spec, {}, {});
    dyn_bitset uncovered(cs.total);
    uncovered.set_all();
    std::vector<global_input> tour{global_input::reset()};
    if (cs.words == 1) {
        extend_tour<1>(cs, spec, max_search_states, uncovered, tour);
    } else {
        extend_tour<runtime_words>(cs, spec, max_search_states, uncovered,
                                   tour);
    }

    tour_result result;
    result.suite.add(
        test_case::from_inputs("tour", std::move(tour), false));
    uncovered.for_each_set([&](std::size_t d) {
        result.uncovered.push_back(
            cs.global_id(static_cast<std::uint32_t>(d)));
    });
    return result;
}

}  // namespace cfsmdiag
