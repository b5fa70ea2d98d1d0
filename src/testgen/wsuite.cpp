#include "testgen/wsuite.hpp"

#include "diag/compiled.hpp"
#include "fsm/cover.hpp"

namespace cfsmdiag {

w_suite_result per_machine_w_suite(const system& spec) {
    w_suite_result result;
    const compiled_spec cs = compile_spec(spec, {}, {});

    for (std::uint32_t mi = 0; mi < spec.machine_count(); ++mi) {
        const machine_id m{mi};
        const fsm& machine = spec.machine(m);
        const local_view view(machine);
        auto w = characterization_set(view);
        if (w.empty()) w.push_back({});  // single-state machine: no probe

        for (std::uint32_t ti = 0;
             ti < static_cast<std::uint32_t>(machine.transitions().size());
             ++ti) {
            const transition& t = machine.transitions()[ti];
            const auto transfer =
                global_transfer_to_machine_state(cs, spec, m, t.from);
            if (!transfer) {
                result.unreachable.push_back({m, transition_id{ti}});
                continue;
            }
            int wi = 0;
            for (const auto& seq : w) {
                std::vector<global_input> body = *transfer;
                body.push_back(global_input::at(m, t.input));
                for (symbol s : seq) body.push_back(global_input::at(m, s));
                result.suite.add(test_case::from_inputs(
                    machine.name() + "." + t.name + "/w" +
                        std::to_string(++wi),
                    std::move(body)));
            }
        }
    }
    return result;
}

test_suite product_w_suite(const system& spec, std::size_t max_states) {
    const composition comp = compose(spec, max_states);
    const local_view view(comp.machine);
    auto w = characterization_set(view);
    if (w.empty()) w.push_back({});
    const auto cover = transition_cover(comp.machine);

    auto to_global = [&](const std::vector<symbol>& product_inputs) {
        std::vector<global_input> seq;
        seq.reserve(product_inputs.size());
        for (symbol s : product_inputs)
            seq.push_back(comp.input_of_symbol[s.id]);
        return seq;
    };

    test_suite suite;
    int n = 0;
    for (const auto& [tid, prefix] : cover.sequences) {
        for (const auto& seq : w) {
            std::vector<symbol> product_seq = prefix;
            product_seq.insert(product_seq.end(), seq.begin(), seq.end());
            suite.add(test_case::from_inputs(
                "pw" + std::to_string(++n), to_global(product_seq)));
        }
    }
    // The W-method also probes the initial state (empty prefix).
    for (const auto& seq : w) {
        suite.add(test_case::from_inputs("pw" + std::to_string(++n),
                                         to_global(seq)));
    }
    return suite;
}

}  // namespace cfsmdiag
