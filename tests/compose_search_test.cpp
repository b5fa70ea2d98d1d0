// Unit tests for cfsm/compose and cfsm/search.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::in;
using testing_helpers::make_pair_system;
using testing_helpers::tid;

TEST(compose_test, product_reproduces_global_behaviour) {
    const system sys = make_pair_system();
    const composition comp = compose(sys);

    // Re-simulate a few sequences through the product machine and compare
    // with the CFSM simulator.
    rng random(11);
    std::vector<global_input> all;
    for (std::uint32_t mi = 0; mi < sys.machine_count(); ++mi) {
        for (symbol s : sys.machine(machine_id{mi}).input_alphabet())
            all.push_back(global_input::at(machine_id{mi}, s));
    }
    // Reverse map global input -> product symbol.
    auto product_symbol = [&](const global_input& gin) {
        for (std::uint32_t sid = 1; sid < comp.input_of_symbol.size();
             ++sid) {
            if (comp.input_of_symbol[sid] == gin) return symbol{sid};
        }
        throw error("input not in product alphabet");
    };

    const local_view view(comp.machine);
    for (int rep = 0; rep < 20; ++rep) {
        simulator sim(sys);
        sim.reset();
        state_id product_state = comp.machine.initial_state();
        for (int step = 0; step < 12; ++step) {
            const global_input gin = random.pick(all);
            const observation obs = sim.apply(gin);
            const local_step ps =
                view.step(product_state, product_symbol(gin));
            // Compare observation spellings.
            if (obs.is_null()) {
                EXPECT_TRUE(ps.label.is_epsilon());
            } else {
                EXPECT_EQ(comp.symbols.name(ps.label),
                          sys.symbols().name(obs.output) + "@P" +
                              std::to_string(obs.port->value + 1));
            }
            product_state = ps.next;
            // The product state's tuple must match the simulator state.
            EXPECT_EQ(comp.state_tuples[product_state.value], sim.state());
        }
    }
}

TEST(compose_test, state_count_matches_probe) {
    const system sys = make_pair_system();
    const composition comp = compose(sys);
    EXPECT_EQ(comp.machine.state_count(),
              count_reachable_global_states(sys));
    // 2 × 2 machines, all combinations reachable here.
    EXPECT_EQ(comp.machine.state_count(), 4u);
}

TEST(compose_test, fired_map_lists_chain) {
    const system sys = make_pair_system();
    const composition comp = compose(sys);
    bool found_pair = false;
    for (std::size_t ti = 0; ti < comp.fired_of_transition.size(); ++ti) {
        if (comp.fired_of_transition[ti].size() == 2) {
            found_pair = true;
            EXPECT_EQ(comp.machine.transitions()[ti].name.find('+') !=
                          std::string::npos,
                      true);
        }
    }
    EXPECT_TRUE(found_pair);
}

TEST(compose_test, max_states_guard_throws) {
    const auto ex = paperex::make_paper_example();
    EXPECT_THROW((void)compose(ex.spec, 2), model_error);
}

TEST(compose_test, paper_example_product_size) {
    const auto ex = paperex::make_paper_example();
    const composition comp = compose(ex.spec);
    // 3 machines × 3 states: at most 27 global states.
    EXPECT_LE(comp.machine.state_count(), 27u);
    EXPECT_GE(comp.machine.state_count(), 3u);
    EXPECT_EQ(comp.machine.state_count(),
              count_reachable_global_states(ex.spec));
}

/// The lowered transfer search from reset, held to the reference
/// std::map search.
std::optional<std::vector<global_input>> transfer(
    const system& sys, machine_id m, state_id s,
    const global_search_options& opts = {}) {
    const compiled_spec cs = compile_spec(sys, {}, {});
    const auto seq = global_transfer_to_machine_state(cs, sys, m, s, opts);
    EXPECT_EQ(seq, ref_oracle::reference_transfer_to_machine_state(sys, m, s,
                                                                   opts));
    return seq;
}

TEST(search_test, transfer_reaches_machine_state) {
    const system sys = make_pair_system();
    // Reach B in q1: shortest is one step (send@P1 or y@P2).
    const auto seq = transfer(sys, machine_id{1}, state_id{1});
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(seq->size(), 1u);
}

TEST(search_test, empty_sequence_when_goal_already_holds) {
    const system sys = make_pair_system();
    const auto seq = transfer(sys, machine_id{0}, state_id{0});
    ASSERT_TRUE(seq.has_value());
    EXPECT_TRUE(seq->empty());
}

TEST(search_test, avoidance_forces_detour_or_failure) {
    const system sys = make_pair_system();
    // Reach B@q1 while avoiding both b1 (reacts to msg1) and b5 (y@P2):
    // impossible — b3 leaves q1 and b4 requires q1.
    global_search_options opts;
    opts.avoid = {tid(sys, 1, "b1"), tid(sys, 1, "b5")};
    const auto seq = transfer(sys, machine_id{1}, state_id{1}, opts);
    EXPECT_FALSE(seq.has_value());

    // Avoiding only b5 still works via send@P1.
    opts.avoid = {tid(sys, 1, "b5")};
    const auto seq2 = transfer(sys, machine_id{1}, state_id{1}, opts);
    ASSERT_TRUE(seq2.has_value());
    EXPECT_EQ(seq2->size(), 1u);
    EXPECT_EQ(*seq2, (std::vector<global_input>{in(sys, 1, "send")}));
}

}  // namespace
}  // namespace cfsmdiag
