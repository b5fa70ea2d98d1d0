#include "diag/conflict.hpp"

namespace cfsmdiag {

conflict_sets generate_conflict_sets(const system& spec,
                                     const symptom_report& report) {
    conflict_sets out;
    out.per_machine.resize(spec.machine_count());

    for (std::size_t ci : report.symptomatic_cases) {
        const executed_case& run = report.runs[ci];
        std::vector<std::set<transition_id>> sets(spec.machine_count());
        const std::size_t last = *run.first_symptom;
        for (std::size_t step = 0; step <= last; ++step) {
            for (global_transition_id g : (*run.trace)[step].fired)
                sets[g.machine.value].insert(g.transition);
        }
        for (std::size_t m = 0; m < spec.machine_count(); ++m)
            out.per_machine[m].push_back(std::move(sets[m]));
    }
    return out;
}

}  // namespace cfsmdiag
