#include "fault/enumerate.hpp"

#include <algorithm>

namespace cfsmdiag {

std::vector<symbol> admissible_faulty_outputs(
    const system& spec, const std::vector<machine_alphabets>& alphabets,
    global_transition_id id) {
    const transition& t = spec.transition_at(id);
    const machine_alphabets& a = alphabets[id.machine.value];
    // compute_alphabets skips a destination past the last machine (a
    // system that skipped validate_structure); it admits no message.
    std::vector<symbol> pool;
    if (t.kind == output_kind::external)
        pool = a.oeo;
    else if (t.destination.value < a.oio_to.size())
        pool = a.oio_to[t.destination.value];
    pool.erase(std::remove(pool.begin(), pool.end(), t.output), pool.end());
    return pool;
}

std::vector<single_transition_fault> enumerate_output_faults(
    const system& spec) {
    std::vector<single_transition_fault> out;
    const auto alphabets = compute_alphabets(spec);
    for (global_transition_id id : spec.all_transitions()) {
        for (symbol o : admissible_faulty_outputs(spec, alphabets, id)) {
            out.push_back({id, o, std::nullopt});
        }
    }
    return out;
}

std::vector<single_transition_fault> enumerate_transfer_faults(
    const system& spec) {
    std::vector<single_transition_fault> out;
    for (global_transition_id id : spec.all_transitions()) {
        const fsm& m = spec.machine(id.machine);
        const transition& t = m.at(id.transition);
        for (std::uint32_t s = 0; s < m.state_count(); ++s) {
            if (state_id{s} == t.to) continue;
            out.push_back({id, std::nullopt, state_id{s}});
        }
    }
    return out;
}

std::vector<single_transition_fault> enumerate_double_faults(
    const system& spec) {
    std::vector<single_transition_fault> out;
    const auto alphabets = compute_alphabets(spec);
    for (global_transition_id id : spec.all_transitions()) {
        const fsm& m = spec.machine(id.machine);
        const transition& t = m.at(id.transition);
        const auto outputs = admissible_faulty_outputs(spec, alphabets, id);
        for (symbol o : outputs) {
            for (std::uint32_t s = 0; s < m.state_count(); ++s) {
                if (state_id{s} == t.to) continue;
                out.push_back({id, o, state_id{s}});
            }
        }
    }
    return out;
}

std::vector<single_transition_fault> enumerate_all_faults(
    const system& spec) {
    auto out = enumerate_output_faults(spec);
    auto transfer = enumerate_transfer_faults(spec);
    auto both = enumerate_double_faults(spec);
    out.insert(out.end(), transfer.begin(), transfer.end());
    out.insert(out.end(), both.begin(), both.end());
    return out;
}

std::vector<single_transition_fault> enumerate_addressing_faults(
    const system& spec) {
    std::vector<single_transition_fault> out;
    for (global_transition_id id : spec.all_transitions()) {
        const transition& t = spec.transition_at(id);
        if (t.kind != output_kind::internal) continue;
        for (std::uint32_t j = 0; j < spec.machine_count(); ++j) {
            const machine_id dest{j};
            if (dest == id.machine || dest == t.destination) continue;
            single_transition_fault f;
            f.target = id;
            f.faulty_destination = dest;
            out.push_back(f);
        }
    }
    return out;
}

}  // namespace cfsmdiag
