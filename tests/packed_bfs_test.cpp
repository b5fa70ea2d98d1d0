// packed_bfs (diag/compiled.hpp), the kernel under transition_tour and the
// transfer searches, against the std::map searches of
// tests/reference_oracle.hpp: equal tours, transfers and simulated_step_count
// ticks on Figure 1, the model library, sliding windows, token rings of one
// and two words and random systems of one and two words, at visited caps
// that cut the searches short; equal exceptions from chains that throw; and
// the tours of the example systems against the copies in tests/data.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <typeinfo>

#include "cfsmdiag.hpp"
#include "models/models.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

constexpr std::size_t default_cap = 200'000;

/// A search's result (unset when it threw), the type and text of what it
/// threw, and the simulated steps it took either way.
template <typename T>
struct outcome {
    std::optional<T> value;
    std::string thrown;
    std::size_t steps = 0;
};

template <typename F>
auto run(F&& search) {
    outcome<decltype(search())> out;
    const std::size_t before = simulated_steps();
    try {
        out.value = search();
    } catch (const std::exception& e) {
        out.thrown = std::string(typeid(e).name()) + ": " + e.what();
    }
    out.steps = simulated_steps() - before;
    return out;
}

void expect_same_tour(const cfsmdiag::system& spec, std::size_t cap) {
    SCOPED_TRACE("tour cap " + std::to_string(cap));
    const auto want = run([&] { return ref_oracle::reference_tour(spec, cap); });
    const auto got = run([&] { return transition_tour(spec, cap); });
    EXPECT_EQ(got.thrown, want.thrown);
    EXPECT_EQ(got.steps, want.steps);
    ASSERT_EQ(got.value.has_value(), want.value.has_value());
    if (!want.value) return;
    ASSERT_EQ(got.value->suite.cases.size(), 1u);
    EXPECT_EQ(got.value->suite.cases[0].name, want.value->suite.cases[0].name);
    EXPECT_EQ(got.value->suite.cases[0].inputs,
              want.value->suite.cases[0].inputs);
    EXPECT_EQ(got.value->uncovered, want.value->uncovered);
}

void expect_same_tours(const cfsmdiag::system& spec) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, default_cap})
        expect_same_tour(spec, cap);
}

/// The transfer from reset to (m, s) on a shared lowering, against the
/// reference.
void expect_same_transfer(const cfsmdiag::system& spec,
                          const compiled_spec& cs, machine_id m, state_id s,
                          const global_search_options& options) {
    const auto want = run([&] {
        return ref_oracle::reference_transfer_to_machine_state(spec, m, s,
                                                               options);
    });
    const auto got = run([&] {
        return global_transfer_to_machine_state(cs, spec, m, s, options);
    });
    EXPECT_EQ(got.thrown, want.thrown);
    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.value, want.value);
}

/// Every state of every `machine_stride`-th machine as a target, with no
/// avoided transition at `caps`, then with each `avoid_stride`-th
/// transition avoided alone at `avoid_caps`.
void expect_same_transfers(const cfsmdiag::system& spec,
                           std::size_t machine_stride,
                           std::initializer_list<std::size_t> caps,
                           std::size_t avoid_stride,
                           std::initializer_list<std::size_t> avoid_caps) {
    const compiled_spec cs = compile_spec(spec, {}, {});
    const auto transitions = spec.all_transitions();
    for (std::uint32_t mi = 0; mi < spec.machine_count();
         mi += static_cast<std::uint32_t>(machine_stride)) {
        const machine_id m{mi};
        for (std::uint32_t si = 0; si < spec.machine(m).state_count(); ++si) {
            SCOPED_TRACE("target " + spec.machine(m).name() + " state " +
                         std::to_string(si));
            global_search_options options;
            for (const std::size_t cap : caps) {
                options.max_states = cap;
                expect_same_transfer(spec, cs, m, state_id{si}, options);
            }
            for (std::size_t t = mi % avoid_stride; t < transitions.size();
                 t += avoid_stride) {
                SCOPED_TRACE("avoiding " +
                             spec.transition_label(transitions[t]));
                options.avoid = {transitions[t]};
                for (const std::size_t cap : avoid_caps) {
                    options.max_states = cap;
                    expect_same_transfer(spec, cs, m, state_id{si}, options);
                }
            }
        }
    }
}

std::vector<std::pair<std::string, cfsmdiag::system>> narrow_systems() {
    std::vector<std::pair<std::string, cfsmdiag::system>> out;
    out.emplace_back("figure1", paperex::make_paper_example().spec);
    for (auto& named : models::all_models()) out.push_back(std::move(named));
    for (std::size_t m = 2; m <= 8; ++m)
        out.emplace_back("sliding_window(" + std::to_string(m) + ")",
                         models::sliding_window(m));
    for (std::size_t n = 2; n <= 8; ++n)
        out.emplace_back("token_ring(" + std::to_string(n) + ")",
                         models::token_ring(n));
    return out;
}

/// The random systems of two words that
/// discrim_engine.splitting_sequence_identity_wide_random_systems checks.
cfsmdiag::system wide_random_system(std::uint64_t seed) {
    rng random(seed);
    random_system_options opts;
    opts.machines = seed % 2 == 1 ? 22 : 17;
    opts.states_per_machine = seed % 2 == 1 ? 8 : 16;
    opts.extra_transitions = 3;
    return random_system(opts, random);
}

TEST(packed_bfs, tours_match_the_reference_search) {
    for (const auto& [name, spec] : narrow_systems()) {
        SCOPED_TRACE(name);
        expect_same_tours(spec);
    }
    for (std::size_t n = 63; n <= 66; ++n) {
        SCOPED_TRACE("token_ring(" + std::to_string(n) + ")");
        const cfsmdiag::system ring = models::token_ring(n);
        EXPECT_EQ(compile_spec(ring, {}, {}).words, n <= 64 ? 1u : 2u);
        expect_same_tours(ring);
    }
}

TEST(packed_bfs, tours_match_the_reference_search_on_random_systems) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        expect_same_tours(random_system({}, random));
    }
    for (const std::uint64_t seed : {3u, 4u, 7u, 8u}) {
        SCOPED_TRACE("wide seed " + std::to_string(seed));
        const cfsmdiag::system sys = wide_random_system(seed);
        ASSERT_EQ(compile_spec(sys, {}, {}).words, 2u);
        expect_same_tours(sys);
    }
}

TEST(packed_bfs, transfers_match_the_reference_search) {
    for (const auto& [name, spec] : narrow_systems()) {
        SCOPED_TRACE(name);
        expect_same_transfers(spec, 1, {1, 2, 7, default_cap}, 1,
                              {1, 2, 7, default_cap});
    }
}

TEST(packed_bfs, transfers_match_the_reference_search_on_wide_systems) {
    // The rings of one and two words and the wide random systems reach
    // far more states, and an avoided transition can leave a target that
    // only an exhausted search proves unreachable (seconds per target on
    // the reference at the default cap): a few avoided transitions per
    // target, under smaller caps, and on the random systems the targets of
    // every fourth machine.
    for (std::size_t n = 63; n <= 66; ++n) {
        SCOPED_TRACE("token_ring(" + std::to_string(n) + ")");
        expect_same_transfers(models::token_ring(n), 1,
                              {1, 2, 7, default_cap}, n, {1, 2, 7, 2000});
    }
    for (const std::uint64_t seed : {3u, 4u, 7u, 8u}) {
        SCOPED_TRACE("wide seed " + std::to_string(seed));
        const cfsmdiag::system sys = wide_random_system(seed);
        expect_same_transfers(sys, 4, {1, 2, 7, 200},
                              sys.total_transitions() / 3, {1, 7});
    }
}

TEST(packed_bfs, transfers_match_the_reference_search_on_random_systems) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        expect_same_transfers(random_system({}, random), 1,
                              {1, 2, 7, default_cap}, 3,
                              {1, 2, 7, default_cap});
    }
}

/// Two machines: after `x`, `go` at A sends `msg` to B, whose reaction is
/// b1.  `variant` picks what b1 does: send ε to A, send `back` to A (whose
/// a2 answers with `msg` again after `x`: a message cycle), address B
/// itself, or address a machine the system does not have.
/// validate_structure rejects all four.
cfsmdiag::system make_chain_system(const std::string& variant) {
    symbol_table symbols;
    fsm_builder a("A", symbols);
    a.external("a0", "s0", "x", "y", "s1");
    a.internal("a1", "s1", "go", "msg", "s1", machine_id{1});
    a.internal("a2", "s1", "back", "msg", "s1", machine_id{1});
    fsm_builder b("B", symbols);
    b.external("b0", "q0", "z", "w", "q0");
    if (variant == "epsilon") {
        b.internal("b1", "q0", "msg", "-", "q0", machine_id{0});
    } else if (variant == "cycle") {
        b.internal("b1", "q0", "msg", "back", "q0", machine_id{0});
    } else if (variant == "self") {
        b.internal("b1", "q0", "msg", "loop", "q0", machine_id{1});
    } else {
        b.internal("b1", "q0", "msg", "lost", "q0", machine_id{7});
    }
    std::vector<fsm> machines;
    machines.push_back(a.build("s0"));
    machines.push_back(b.build("q0"));
    return cfsmdiag::system(variant, std::move(symbols), std::move(machines));
}

TEST(packed_bfs, throwing_chains_throw_alike) {
    for (const std::string variant : {"epsilon", "cycle", "self", "nowhere"}) {
        SCOPED_TRACE(variant);
        const cfsmdiag::system sys = make_chain_system(variant);
        const auto want = run([&] { return ref_oracle::reference_tour(sys); });
        const auto got = run([&] { return transition_tour(sys); });
        EXPECT_FALSE(want.thrown.empty());
        EXPECT_EQ(got.thrown, want.thrown);
        EXPECT_EQ(got.steps, want.steps);
        expect_same_transfers(sys, 1, {1, 2, 7, default_cap}, 1,
                              {1, 2, 7, default_cap});
    }
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(packed_bfs, example_tours_match_the_committed_tours) {
    // `cfsmdiag gen <system> tour` output, committed before the tour moved
    // onto packed_bfs: the oracle checks the search, this checks the tour.
    for (const std::string name :
         {"figure1", "sliding_window4", "token_ring65"}) {
        SCOPED_TRACE(name);
        const cfsmdiag::system sys = parse_system(
            slurp(std::string(CFSMDIAG_SOURCE_DIR) + "/examples/data/" +
                  name + ".cfsm"));
        const tour_result tour = transition_tour(sys);
        EXPECT_TRUE(tour.uncovered.empty());
        EXPECT_EQ(write_suite(tour.suite, sys.symbols()),
                  slurp(std::string(CFSMDIAG_SOURCE_DIR) + "/tests/data/" +
                        name + ".tour"));
    }
}

}  // namespace
}  // namespace cfsmdiag
