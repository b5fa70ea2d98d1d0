#include "gen/random_system.hpp"

#include <algorithm>
#include <set>

#include "cfsm/validate.hpp"
#include "util/error.hpp"

namespace cfsmdiag {
namespace {

std::string letter_name(std::string prefix, std::size_t k) {
    return prefix + std::string(1, static_cast<char>('a' + k));
}

}  // namespace

system random_system(const random_system_options& options, rng& random) {
    detail::require(options.machines >= 2,
                    "random_system: need at least two machines");
    detail::require(options.states_per_machine >= 1,
                    "random_system: need at least one state per machine");
    detail::require(
        options.external_inputs >= 1 && options.external_outputs >= 1,
        "random_system: need external input and output symbols");

    const std::size_t n = options.machines;
    symbol_table symbols;

    // Symbol pools.  Names encode role and machine(s) so generated systems
    // are debuggable: in2b = 2nd machine's external input 'b', m13a =
    // message 'a' from M1 to M3, go13a = M1's internal input that sends it.
    std::vector<std::vector<symbol>> ext_in(n), ext_out(n);
    std::vector<std::vector<std::vector<symbol>>> msg(n), int_in(n);
    for (std::size_t i = 0; i < n; ++i) {
        msg[i].resize(n);
        int_in[i].resize(n);
        for (std::size_t k = 0; k < options.external_inputs; ++k)
            ext_in[i].push_back(symbols.intern(
                letter_name("in" + std::to_string(i + 1), k)));
        for (std::size_t k = 0; k < options.external_outputs; ++k)
            ext_out[i].push_back(symbols.intern(
                letter_name("out" + std::to_string(i + 1), k)));
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            const std::string pair =
                std::to_string(i + 1) + std::to_string(j + 1);
            for (std::size_t k = 0; k < options.messages_per_pair; ++k)
                msg[i][j].push_back(
                    symbols.intern(letter_name("m" + pair, k)));
            for (std::size_t k = 0; k < options.internal_inputs_per_pair;
                 ++k)
                int_in[i][j].push_back(
                    symbols.intern(letter_name("go" + pair, k)));
        }
    }

    const std::size_t S = options.states_per_machine;
    std::vector<std::vector<transition>> transitions(n);
    std::vector<std::set<std::uint64_t>> used(n);  // (state, input) keys

    auto input_free = [&](std::size_t i, state_id s, symbol in) {
        return used[i].count(state_input_key(s, in)) == 0;
    };
    auto add_transition = [&](std::size_t i, state_id from, symbol in,
                              symbol out, state_id to, output_kind kind,
                              machine_id dest) {
        transition t;
        t.from = from;
        t.input = in;
        t.output = out;
        t.to = to;
        t.kind = kind;
        t.destination = dest;
        transitions[i].push_back(std::move(t));
        used[i].insert(state_input_key(from, in));
    };

    // Picks an unused input for the given kind at `from`; nullopt if the
    // pool is exhausted at that state.
    auto pick_free = [&](std::size_t i, state_id from,
                         const std::vector<symbol>& pool)
        -> std::optional<symbol> {
        std::vector<symbol> free;
        for (symbol s : pool) {
            if (input_free(i, from, s)) free.push_back(s);
        }
        if (free.empty()) return std::nullopt;
        return random.pick(free);
    };

    for (std::size_t i = 0; i < n; ++i) {
        // Spanning tree: every state gets an incoming transition from an
        // already-connected state, so the machine is initially connected.
        std::vector<state_id> connected{state_id{0}};
        for (std::uint32_t s = 1; s < S; ++s) {
            for (int attempt = 0; attempt < 64; ++attempt) {
                const state_id from = random.pick(connected);
                const bool internal =
                    n >= 2 && random.chance(options.internal_ratio);
                if (internal) {
                    std::size_t j = random.index(n - 1);
                    if (j >= i) ++j;
                    if (auto in = pick_free(i, from, int_in[i][j])) {
                        add_transition(i, from, *in,
                                       random.pick(msg[i][j]), state_id{s},
                                       output_kind::internal,
                                       machine_id{
                                           static_cast<std::uint32_t>(j)});
                        connected.push_back(state_id{s});
                        break;
                    }
                } else if (auto in = pick_free(i, from, ext_in[i])) {
                    add_transition(i, from, *in, random.pick(ext_out[i]),
                                   state_id{s}, output_kind::external,
                                   machine_id{});
                    connected.push_back(state_id{s});
                    break;
                }
            }
            detail::require(connected.size() == s + 1,
                            "random_system: could not connect state (input "
                            "pools too small for the state count)");
        }

        // Density filling.
        for (std::size_t e = 0; e < options.extra_transitions; ++e) {
            const state_id from{
                static_cast<std::uint32_t>(random.index(S))};
            const state_id to{static_cast<std::uint32_t>(random.index(S))};
            const bool internal =
                n >= 2 && random.chance(options.internal_ratio);
            if (internal) {
                std::size_t j = random.index(n - 1);
                if (j >= i) ++j;
                if (auto in = pick_free(i, from, int_in[i][j])) {
                    add_transition(i, from, *in, random.pick(msg[i][j]), to,
                                   output_kind::internal,
                                   machine_id{
                                       static_cast<std::uint32_t>(j)});
                }
            } else if (auto in = pick_free(i, from, ext_in[i])) {
                add_transition(i, from, *in, random.pick(ext_out[i]), to,
                               output_kind::external, machine_id{});
            }
        }
    }

    // Receiver coverage: every message a sender can emit must label at
    // least one external-output transition at the receiver.
    for (std::size_t i = 0; i < n; ++i) {
        for (const transition& t : transitions[i]) {
            if (t.kind != output_kind::internal) continue;
            const std::size_t j = t.destination.value;
            const bool covered = std::any_of(
                transitions[j].begin(), transitions[j].end(),
                [&](const transition& r) {
                    return r.kind == output_kind::external &&
                           r.input == t.output;
                });
            if (covered) continue;
            // Add a handler at a state where the symbol is still free.
            bool added = false;
            for (std::uint32_t s = 0; s < S && !added; ++s) {
                if (!input_free(j, state_id{s}, t.output)) continue;
                add_transition(j, state_id{s}, t.output,
                               random.pick(ext_out[j]),
                               state_id{static_cast<std::uint32_t>(
                                   random.index(S))},
                               output_kind::external, machine_id{});
                added = true;
            }
            detail::require(added,
                            "random_system: message symbol already used as "
                            "input in every receiver state");
        }
    }

    std::vector<fsm> machines;
    machines.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::string> names;
        for (std::uint32_t s = 0; s < S; ++s) {
            names.emplace_back("s");
            names.back() += std::to_string(s);
        }
        machines.emplace_back("M" + std::to_string(i + 1), std::move(names),
                              state_id{0}, std::move(transitions[i]));
    }
    system sys("random", std::move(symbols), std::move(machines));
    validate_structure(sys);
    return sys;
}

}  // namespace cfsmdiag
