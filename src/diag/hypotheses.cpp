#include "diag/hypotheses.hpp"

#include "util/budget.hpp"

namespace cfsmdiag {

std::size_t simulated_steps() noexcept {
    return detail::simulated_step_count;
}

bool hypothesis_consistent(const system& spec, const test_suite& suite,
                           const symptom_report& report,
                           const transition_override& ov,
                           const replay_cache* cache) {
    detail::note_hypothesis_replay();
    detail::budget_poll();
    if (cache) return cache->consistent(ov);
    simulator sim(spec, ov);
    for (std::size_t ci = 0; ci < suite.cases.size(); ++ci) {
        // A quarantined run's observations are untrusted — it must neither
        // support nor refute any hypothesis.
        if (report.runs[ci].quarantined) continue;
        const auto& inputs = suite.cases[ci].inputs;
        const auto& observed = report.runs[ci].observed;
        sim.reset();
        for (std::size_t step = 0; step < inputs.size(); ++step) {
            if (sim.apply(inputs[step]) != observed[step]) return false;
        }
    }
    return true;
}

std::vector<state_id> end_states(const system& spec, const test_suite& suite,
                                 const symptom_report& report,
                                 global_transition_id t,
                                 const replay_cache* cache) {
    std::vector<state_id> out;
    const fsm& m = spec.machine(t.machine);
    const state_id specified = m.at(t.transition).to;
    for (std::uint32_t s = 0; s < m.state_count(); ++s) {
        if (state_id{s} == specified) continue;
        const transition_override ov{t, std::nullopt, state_id{s}};
        if (hypothesis_consistent(spec, suite, report, ov, cache))
            out.push_back(state_id{s});
    }
    return out;
}

std::vector<symbol> consistent_outputs(const system& spec,
                                       const test_suite& suite,
                                       const symptom_report& report,
                                       global_transition_id t,
                                       const std::vector<symbol>& pool,
                                       const replay_cache* cache) {
    std::vector<symbol> out;
    const symbol specified = spec.transition_at(t).output;
    for (symbol o : pool) {
        if (o == specified) continue;
        const transition_override ov{t, o, std::nullopt};
        if (hypothesis_consistent(spec, suite, report, ov, cache))
            out.push_back(o);
    }
    return out;
}

std::vector<machine_id> consistent_destinations(const system& spec,
                                                const test_suite& suite,
                                                const symptom_report& report,
                                                global_transition_id t,
                                                const replay_cache* cache) {
    std::vector<machine_id> out;
    const transition& tr = spec.transition_at(t);
    if (tr.kind != output_kind::internal) return out;
    for (std::uint32_t j = 0; j < spec.machine_count(); ++j) {
        const machine_id dest{j};
        if (dest == t.machine || dest == tr.destination) continue;
        transition_override ov;
        ov.target = t;
        ov.destination = dest;
        if (hypothesis_consistent(spec, suite, report, ov, cache))
            out.push_back(dest);
    }
    return out;
}

std::vector<std::pair<state_id, symbol>> consistent_statout(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const std::vector<symbol>& pool,
    const replay_cache* cache) {
    std::vector<std::pair<state_id, symbol>> out;
    const fsm& m = spec.machine(t.machine);
    const transition& tr = m.at(t.transition);
    for (std::uint32_t s = 0; s < m.state_count(); ++s) {
        if (state_id{s} == tr.to) continue;
        for (symbol o : pool) {
            if (o == tr.output) continue;
            const transition_override ov{t, o, state_id{s}};
            if (hypothesis_consistent(spec, suite, report, ov, cache))
                out.emplace_back(state_id{s}, o);
        }
    }
    return out;
}

}  // namespace cfsmdiag
