#include "diag/replay_cache.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/error.hpp"

namespace cfsmdiag {
namespace {

thread_local std::size_t case_skip_count = 0;
thread_local std::size_t suffix_replay_count = 0;

std::vector<std::uint32_t> machine_offsets(const system& spec,
                                           std::uint32_t& total) {
    std::vector<std::uint32_t> offsets;
    offsets.reserve(spec.machine_count());
    total = 0;
    for (const fsm& m : spec.machines()) {
        offsets.push_back(total);
        total += static_cast<std::uint32_t>(m.transitions().size());
    }
    return offsets;
}

std::uint32_t checked_dense_id(const system& spec,
                               const std::vector<std::uint32_t>& offsets,
                               global_transition_id t) {
    detail::require(t.machine.value < spec.machine_count(),
                    "replay_cache: override machine out of range");
    detail::require(t.transition.value <
                        spec.machine(t.machine).transitions().size(),
                    "replay_cache: override transition out of range");
    return offsets[t.machine.value] + t.transition.value;
}

/// One spec replay of `inputs`: expected outputs, the state before every
/// step, and each transition's sorted firing-step list.
struct firing_index {
    std::vector<observation> expected;
    std::vector<std::uint32_t> first_fire;
    std::vector<std::vector<std::uint32_t>> fire_steps;
    std::vector<system_state> states;
};

firing_index index_sequence(const system& spec,
                            const std::vector<global_input>& inputs,
                            const std::vector<std::uint32_t>& offsets,
                            std::uint32_t total) {
    firing_index out;
    out.first_fire.assign(total, invalid_index);
    out.fire_steps.resize(total);
    out.expected.reserve(inputs.size());
    out.states.reserve(inputs.size() + 1);

    simulator sim(spec);
    sim.reset();
    std::vector<global_transition_id> fired;
    for (std::size_t step = 0; step < inputs.size(); ++step) {
        out.states.push_back(sim.state());
        fired.clear();
        out.expected.push_back(sim.apply(inputs[step], &fired));
        for (global_transition_id gid : fired) {
            const std::uint32_t d =
                offsets[gid.machine.value] + gid.transition.value;
            auto& steps = out.fire_steps[d];
            // A chain step may fire the same transition more than once;
            // record the step once.
            if (!steps.empty() && steps.back() == step) continue;
            steps.push_back(static_cast<std::uint32_t>(step));
            if (out.first_fire[d] == invalid_index)
                out.first_fire[d] = static_cast<std::uint32_t>(step);
        }
    }
    out.states.push_back(sim.state());
    return out;
}

/// Any symptomatic step of the case in [from, to)?  `symptom_steps` is the
/// report's sorted list of observed-vs-expected mismatch positions.
bool symptom_in(const std::vector<std::size_t>& symptom_steps,
                std::size_t from, std::size_t to) {
    const auto it = std::lower_bound(symptom_steps.begin(),
                                     symptom_steps.end(), from);
    return it != symptom_steps.end() && *it < to;
}

/// First firing step >= `from` of any dense id in `targets`, or
/// invalid_index.
std::uint32_t next_fire(
    const std::vector<std::vector<std::uint32_t>>& fire_steps,
    const std::vector<std::uint32_t>& targets, std::size_t from) {
    std::uint32_t nf = invalid_index;
    for (std::uint32_t d : targets) {
        const auto& steps = fire_steps[d];
        const auto it = std::lower_bound(
            steps.begin(), steps.end(), static_cast<std::uint32_t>(from));
        if (it != steps.end()) nf = std::min(nf, *it);
    }
    return nf;
}

}  // namespace

std::size_t replay_cache_case_skips() noexcept { return case_skip_count; }
std::size_t replay_cache_suffix_replays() noexcept {
    return suffix_replay_count;
}

namespace detail {
void note_replay_case_skip() noexcept { ++case_skip_count; }
void note_replay_suffix() noexcept { ++suffix_replay_count; }
}  // namespace detail

replay_cache::replay_cache(const system& spec, const test_suite& suite,
                           const symptom_report& report)
    : spec_(&spec), suite_(&suite), report_(&report) {
    detail::require(report.runs.size() == suite.cases.size(),
                    "replay_cache: report does not match suite");
    machine_offset_ = machine_offsets(spec, total_transitions_);
    cases_.reserve(suite.cases.size());
    // Step 1 already replayed the suite on the spec (collect_symptoms's
    // `explain` call); the trace carries every fired transition and the
    // state before each step, so the index is built without simulating.
    for (std::size_t ci = 0; ci < suite.cases.size(); ++ci) {
        const auto& trace = *report.runs[ci].trace;
        detail::require(trace.size() == suite.cases[ci].inputs.size(),
                        "replay_cache: report trace does not match suite");
        case_data c;
        c.first_fire.assign(total_transitions_, invalid_index);
        c.fire_steps.resize(total_transitions_);
        c.states.reserve(trace.size());
        c.rep.reserve(trace.size());
        std::map<std::pair<system_state, global_input>, std::uint32_t>
            classes;
        for (std::size_t step = 0; step < trace.size(); ++step) {
            c.states.push_back(trace[step].before);
            c.rep.push_back(
                classes
                    .try_emplace(std::make_pair(trace[step].before,
                                                trace[step].input),
                                 static_cast<std::uint32_t>(step))
                    .first->second);
            for (global_transition_id gid : trace[step].fired) {
                const std::uint32_t d = machine_offset_[gid.machine.value] +
                                        gid.transition.value;
                auto& steps = c.fire_steps[d];
                // A chain step may fire the same transition more than
                // once; record the step once.
                if (!steps.empty() && steps.back() == step) continue;
                steps.push_back(static_cast<std::uint32_t>(step));
                if (c.first_fire[d] == invalid_index)
                    c.first_fire[d] = static_cast<std::uint32_t>(step);
            }
        }
        c.first_symptom = report.runs[ci].first_symptom;
        cases_.push_back(std::move(c));
    }
}

std::uint32_t replay_cache::dense_id(global_transition_id t) const {
    return checked_dense_id(*spec_, machine_offset_, t);
}

std::optional<std::size_t> replay_cache::first_firing(
    std::size_t ci, global_transition_id t) const {
    detail::require(ci < cases_.size(),
                    "replay_cache::first_firing: case out of range");
    const std::uint32_t f = cases_[ci].first_fire[dense_id(t)];
    if (f == invalid_index) return std::nullopt;
    return static_cast<std::size_t>(f);
}

const system_state& replay_cache::snapshot(std::size_t ci,
                                           global_transition_id t) const {
    detail::require(ci < cases_.size(),
                    "replay_cache::snapshot: case out of range");
    const case_data& c = cases_[ci];
    const std::uint32_t f = c.first_fire[dense_id(t)];
    detail::require(f != invalid_index,
                    "replay_cache::snapshot: transition never fires in case");
    return c.states[f];
}

/// Shared suffix check: simulate case `ci` from step `f` (the first firing
/// of any target) against the observed outputs, re-synchronizing with the
/// cached spec run whenever the mutated state matches it.  `sim` carries
/// the override(s); `targets` are their dense ids.
bool replay_cache::suffix_consistent(
    std::size_t ci, std::uint32_t f, simulator& sim,
    const std::vector<std::uint32_t>& targets) const {
    const case_data& c = cases_[ci];
    const auto& inputs = suite_->cases[ci].inputs;
    const auto& observed = report_->runs[ci].observed;
    const auto& symptoms = report_->runs[ci].symptom_steps;
    const std::size_t n = inputs.size();

    ++suffix_replay_count;
    // Effect of a firing step entered in sync with the spec run, memoized
    // by the step's (state, input) class: the mutated outcome is a pure
    // function of the class, so repeat firings from the same context cost
    // nothing after the first.
    struct step_effect {
        observation obs;
        system_state after;
    };
    std::vector<std::optional<step_effect>> memo(n);
    std::size_t step = f;
    bool synced = true;  // mutated state == c.states[step] entering `step`
    while (true) {
        if (synced) {
            // `step` is a target firing step and the mutated run agrees
            // with the spec run entering it.
            auto& slot = memo[c.rep[step]];
            if (!slot) {
                sim.set_state(c.states[step]);
                const observation obs = sim.apply(inputs[step]);
                slot = step_effect{obs, sim.state()};
            }
            if (slot->obs != observed[step]) return false;
            ++step;
            if (step == n) return true;
            if (slot->after != c.states[step]) {
                // Diverged: simulate from the mutated state.
                sim.set_state(slot->after);
                synced = false;
                continue;
            }
        } else {
            if (sim.apply(inputs[step]) != observed[step]) return false;
            ++step;
            if (step == n) return true;
            if (sim.state() != c.states[step]) continue;
            synced = true;
        }
        // Re-synchronized: the mutated run equals the spec run until a
        // target next fires, so the segment is consistent iff it shows no
        // symptom — no simulation needed.
        const std::uint32_t nf = next_fire(c.fire_steps, targets, step);
        if (nf == invalid_index) return !symptom_in(symptoms, step, n);
        if (symptom_in(symptoms, step, nf)) return false;
        step = nf;
    }
}

bool replay_cache::consistent(const transition_override& ov) const {
    const std::vector<std::uint32_t> targets{dense_id(ov.target)};
    simulator sim(*spec_, ov);
    for (std::size_t ci = 0; ci < cases_.size(); ++ci) {
        // Quarantined runs carry no trustworthy observations; they neither
        // support nor refute (mirrors hypothesis_consistent's uncached path).
        if (report_->runs[ci].quarantined) continue;
        const case_data& c = cases_[ci];
        const std::uint32_t f = c.first_fire[targets[0]];
        if (f == invalid_index) {
            // The mutated run equals the spec run on all of this case:
            // consistent iff the case showed no symptom.
            if (c.first_symptom) return false;
            ++case_skip_count;
            continue;
        }
        // Prefix [0, f): mutated == spec, so any symptom there refutes.
        if (c.first_symptom && *c.first_symptom < f) return false;
        if (!suffix_consistent(ci, f, sim, targets)) return false;
    }
    return true;
}

bool replay_cache::consistent(
    const std::vector<transition_override>& ovs) const {
    detail::require(!ovs.empty(),
                    "replay_cache::consistent: empty override set");
    std::vector<std::uint32_t> targets;
    targets.reserve(ovs.size());
    for (const transition_override& ov : ovs)
        targets.push_back(dense_id(ov.target));
    simulator sim(*spec_, ovs);
    for (std::size_t ci = 0; ci < cases_.size(); ++ci) {
        if (report_->runs[ci].quarantined) continue;
        const case_data& c = cases_[ci];
        // The prefix lemma holds until the *earliest* target fires.
        std::uint32_t f = invalid_index;
        for (std::uint32_t d : targets) f = std::min(f, c.first_fire[d]);
        if (f == invalid_index) {
            if (c.first_symptom) return false;
            ++case_skip_count;
            continue;
        }
        if (c.first_symptom && *c.first_symptom < f) return false;
        if (!suffix_consistent(ci, f, sim, targets)) return false;
    }
    return true;
}

sequence_replay::sequence_replay(const system& spec,
                                 const std::vector<global_input>& inputs)
    : spec_(&spec), inputs_(&inputs) {
    machine_offset_ = machine_offsets(spec, total_transitions_);
    firing_index idx =
        index_sequence(spec, inputs, machine_offset_, total_transitions_);
    expected_ = std::move(idx.expected);
    first_fire_ = std::move(idx.first_fire);
    fire_steps_ = std::move(idx.fire_steps);
    states_ = std::move(idx.states);
}

std::vector<observation> sequence_replay::predict(
    const transition_override& ov) const {
    const std::uint32_t d =
        checked_dense_id(*spec_, machine_offset_, ov.target);
    std::uint32_t f = first_fire_[d];
    if (f == invalid_index) {
        ++case_skip_count;
        return expected_;
    }
    std::vector<observation> out(expected_.begin(), expected_.begin() + f);
    out.reserve(expected_.size());
    ++suffix_replay_count;
    const std::vector<std::uint32_t> targets{d};
    simulator sim(*spec_, ov);
    sim.set_state(states_[f]);
    std::size_t step = f;
    while (step < inputs_->size()) {
        out.push_back(sim.apply((*inputs_)[step]));
        ++step;
        if (step == inputs_->size()) break;
        if (sim.state() != states_[step]) continue;
        // Re-synchronized: outputs equal the spec's until the next firing.
        const std::uint32_t nf = next_fire(fire_steps_, targets, step);
        const std::size_t stop =
            nf == invalid_index ? inputs_->size() : nf;
        out.insert(out.end(), expected_.begin() + step,
                   expected_.begin() + stop);
        if (nf == invalid_index) return out;
        step = nf;
        sim.set_state(states_[nf]);
    }
    return out;
}

bool sequence_replay::matches(
    const transition_override& ov,
    const std::vector<observation>& observed) const {
    if (observed.size() != expected_.size()) return false;
    const std::uint32_t d =
        checked_dense_id(*spec_, machine_offset_, ov.target);
    const std::uint32_t f = first_fire_[d];
    if (f == invalid_index) {
        ++case_skip_count;
        return observed == expected_;
    }
    for (std::size_t step = 0; step < f; ++step) {
        if (expected_[step] != observed[step]) return false;
    }
    ++suffix_replay_count;
    const std::vector<std::uint32_t> targets{d};
    simulator sim(*spec_, ov);
    sim.set_state(states_[f]);
    std::size_t step = f;
    while (step < inputs_->size()) {
        if (sim.apply((*inputs_)[step]) != observed[step]) return false;
        ++step;
        if (step == inputs_->size()) break;
        if (sim.state() != states_[step]) continue;
        // Re-synchronized: compare against the spec's expected outputs
        // (no simulation) until the next firing.
        const std::uint32_t nf = next_fire(fire_steps_, targets, step);
        const std::size_t stop =
            nf == invalid_index ? inputs_->size() : nf;
        for (; step < stop; ++step) {
            if (expected_[step] != observed[step]) return false;
        }
        if (nf == invalid_index) return true;
        sim.set_state(states_[nf]);
    }
    return true;
}

}  // namespace cfsmdiag
