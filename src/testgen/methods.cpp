#include "testgen/methods.hpp"

#include "diag/compiled.hpp"
#include "fsm/distinguish.hpp"

namespace cfsmdiag {

std::string to_string(verification_method m) {
    switch (m) {
        case verification_method::w: return "W";
        case verification_method::wp: return "Wp";
        case verification_method::uio: return "UIO";
        case verification_method::ds: return "DS";
    }
    return "?";
}

method_suite_result per_machine_method_suite(const system& spec,
                                             verification_method method) {
    method_suite_result result;
    const compiled_spec cs = compile_spec(spec, {}, {});

    for (std::uint32_t mi = 0; mi < spec.machine_count(); ++mi) {
        const machine_id m{mi};
        const fsm& machine = spec.machine(m);
        const local_view view(machine);
        const auto w = characterization_set(view);

        // Machine-level DS, computed once.
        std::optional<std::vector<symbol>> ds;
        if (method == verification_method::ds) {
            ds = preset_distinguishing_sequence(view);
            if (!ds) {
                // Machine has no DS: note one fallback marker per machine
                // (state 0 stands for "the whole machine").
                result.fallbacks.emplace_back(m, machine.initial_state());
            }
        }

        // The verifier sequences for a given end state.
        auto verifiers = [&](state_id end)
            -> std::vector<std::vector<symbol>> {
            switch (method) {
                case verification_method::w:
                    return w;
                case verification_method::wp: {
                    auto ident = state_identification_set(view, end, w);
                    if (ident.sequences.empty() && !w.empty())
                        ident.sequences.push_back(w.front());
                    return ident.sequences;
                }
                case verification_method::uio: {
                    if (auto uio = uio_sequence(view, end)) return {*uio};
                    result.fallbacks.emplace_back(m, end);
                    auto ident = state_identification_set(view, end, w);
                    return ident.sequences;
                }
                case verification_method::ds:
                    if (ds) return {*ds};
                    return w;
            }
            return w;
        };

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
            auto seqs = verifiers(t.to);
            if (seqs.empty()) seqs.push_back({});
            int k = 0;
            for (const auto& seq : seqs) {
                std::vector<global_input> body = *transfer;
                body.push_back(global_input::at(m, t.input));
                for (symbol s : seq) body.push_back(global_input::at(m, s));
                result.suite.add(test_case::from_inputs(
                    machine.name() + "." + t.name + "/" +
                        to_string(method) + std::to_string(++k),
                    std::move(body)));
            }
        }
    }
    return result;
}

}  // namespace cfsmdiag
