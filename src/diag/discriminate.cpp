#include "diag/discriminate.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "diag/discrim_engine.hpp"
#include "diag/replay_cache.hpp"
#include "util/budget.hpp"

namespace cfsmdiag {

std::vector<global_input> all_port_inputs(const system& spec) {
    std::vector<global_input> inputs;
    for (std::uint32_t mi = 0; mi < spec.machine_count(); ++mi) {
        for (symbol s : spec.machine(machine_id{mi}).input_alphabet())
            inputs.push_back(global_input::at(machine_id{mi}, s));
    }
    return inputs;
}

namespace {

// The joint search memoizes by (system_state, global_input) and tracks
// visited joint states.  These are lookup-only containers — never
// iterated — so hashing replaces the old ordered maps (whose
// lexicographic system_state comparisons dominated the fallback search's
// profile) without touching BFS order or results.

constexpr std::size_t hash_mix(std::size_t h, std::size_t v) noexcept {
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::size_t hash_state(std::size_t h, const system_state& s) noexcept {
    for (state_id id : s.states) h = hash_mix(h, id.value);
    return h;
}

struct state_input_hash {
    std::size_t operator()(
        const std::pair<system_state, global_input>& k) const noexcept {
        std::size_t h = hash_state(0x811c9dc5u, k.first);
        h = hash_mix(h, k.second.action == global_input::kind::reset
                            ? ~std::size_t{0}
                            : k.second.port.value);
        return hash_mix(h, k.second.input.id);
    }
};

struct joint_hash {
    std::size_t operator()(
        const std::vector<system_state>& j) const noexcept {
        std::size_t h = 0x811c9dc5u;
        for (const system_state& s : j) h = hash_state(h, s);
        return h;
    }
};

}  // namespace

hypothesis_tracker::hypothesis_tracker(const system& spec,
                                       std::vector<diagnosis> initial)
    : spec_(&spec), alive_(std::move(initial)) {
    std::sort(alive_.begin(), alive_.end());
    alive_.erase(std::unique(alive_.begin(), alive_.end()), alive_.end());
}

std::shared_ptr<const sequence_replay> hypothesis_tracker::replay(
    const std::vector<global_input>& inputs) const {
    // The same proposals recur for every fault on the same suspect
    // transition, so the engine's cache usually answers.
    if (engine_ != nullptr) return engine_->replay_for(inputs);
    return std::make_shared<const sequence_replay>(*spec_, inputs);
}

bool hypothesis_tracker::splits(
    const std::vector<global_input>& inputs) const {
    if (alive_.size() < 2) return false;
    // One spec replay of `inputs`; each hypothesis then replays only from
    // its first firing step.
    const auto rep = replay(inputs);
    const auto first = rep->predict(alive_[0].to_override());
    for (std::size_t i = 1; i < alive_.size(); ++i) {
        if (!rep->matches(alive_[i].to_override(), first)) return true;
    }
    return false;
}

std::size_t hypothesis_tracker::apply_result(
    const std::vector<global_input>& inputs,
    const std::vector<observation>& observed) {
    const std::size_t before = alive_.size();
    const auto rep = replay(inputs);
    std::vector<diagnosis> survivors;
    survivors.reserve(alive_.size());
    for (const diagnosis& d : alive_) {
        if (rep->matches(d.to_override(), observed)) survivors.push_back(d);
    }
    alive_ = std::move(survivors);
    return before - alive_.size();
}

std::optional<std::vector<global_input>>
hypothesis_tracker::find_splitting_sequence(
    std::size_t max_joint_states) const {
    std::vector<std::vector<transition_override>> hyps;
    hyps.reserve(alive_.size());
    for (const diagnosis& d : alive_) hyps.push_back({d.to_override()});
    if (engine_ != nullptr)
        return engine_->splitting_sequence(hyps, max_joint_states);
    return splitting_sequence(*spec_, hyps, max_joint_states);
}

std::optional<std::vector<global_input>> splitting_sequence(
    const system& spec,
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states) {
    if (hypotheses.size() < 2) return std::nullopt;

    const auto inputs = all_port_inputs(spec);
    const std::size_t k = hypotheses.size();

    // One simulator per hypothesis; joint state = the k global states.
    std::vector<simulator> sims;
    sims.reserve(k);
    for (const auto& overrides : hypotheses)
        sims.emplace_back(spec, overrides);

    // A step is a pure function of (state, input), and an override never
    // changes which transitions fire — only their effects.  So one
    // memoized *specification* step per (state, input) serves every
    // hypothesis whose target is absent from the spec's fired set (before
    // divergence all hypotheses track the spec); a hypothesis simulates
    // its own step only when its target actually fires, memoized likewise.
    struct effect {
        observation obs;
        system_state next;
        bool progressed;
        std::vector<global_transition_id> fired;  ///< spec steps only
    };
    simulator spec_sim(spec);
    std::unordered_map<std::pair<system_state, global_input>, effect,
                       state_input_hash>
        spec_memo;
    auto step_spec = [&](const system_state& from,
                         const global_input& in) -> const effect& {
        auto key = std::make_pair(from, in);
        auto it = spec_memo.find(key);
        if (it == spec_memo.end()) {
            spec_sim.set_state(from);
            std::vector<global_transition_id> fired;
            const observation obs = spec_sim.apply(in, &fired);
            it = spec_memo
                     .emplace(std::move(key),
                              effect{obs, spec_sim.state(), !fired.empty(),
                                     std::move(fired)})
                     .first;
        }
        return it->second;
    };
    std::vector<std::unordered_map<std::pair<system_state, global_input>,
                                   effect, state_input_hash>>
        memo(k);
    auto step_hypothesis = [&](std::size_t i, const system_state& from,
                               const global_input& in) -> const effect& {
        const effect& se = step_spec(from, in);
        const bool hits = std::any_of(
            hypotheses[i].begin(), hypotheses[i].end(),
            [&](const transition_override& ov) {
                return std::find(se.fired.begin(), se.fired.end(),
                                 ov.target) != se.fired.end();
            });
        if (!hits) return se;  // mutated step == spec step
        auto key = std::make_pair(from, in);
        auto it = memo[i].find(key);
        if (it == memo[i].end()) {
            sims[i].set_state(from);
            std::vector<global_transition_id> fired;
            const observation obs = sims[i].apply(in, &fired);
            it = memo[i]
                     .emplace(std::move(key),
                              effect{obs, sims[i].state(), !fired.empty(),
                                     {}})
                     .first;
        }
        return it->second;
    };

    using joint = std::vector<system_state>;
    auto reset_joint = [&]() {
        joint j;
        j.reserve(k);
        for (auto& sim : sims) {
            sim.reset();
            j.push_back(sim.state());
        }
        return j;
    };

    struct node {
        joint state;
        std::uint32_t parent;
        global_input via;
    };
    std::vector<node> nodes{{reset_joint(), invalid_index,
                             global_input::reset()}};
    std::unordered_set<joint, joint_hash> visited{nodes[0].state};
    std::deque<std::uint32_t> frontier{0};

    while (!frontier.empty()) {
        detail::budget_poll();
        const std::uint32_t idx = frontier.front();
        frontier.pop_front();
        for (const auto& in : inputs) {
            // Step every hypothesis; if observations disagree, this input
            // completes a splitting sequence.
            joint next;
            next.reserve(k);
            std::optional<observation> common;
            bool disagree = false;
            bool progressed = false;
            for (std::size_t i = 0; i < k; ++i) {
                const effect& e = step_hypothesis(i, nodes[idx].state[i], in);
                progressed = progressed || e.progressed;
                if (!common) {
                    common = e.obs;
                } else if (*common != e.obs) {
                    disagree = true;
                }
                next.push_back(e.next);
            }
            if (disagree) {
                std::vector<global_input> seq{in};
                std::uint32_t cur = idx;
                while (nodes[cur].parent != invalid_index) {
                    seq.push_back(nodes[cur].via);
                    cur = nodes[cur].parent;
                }
                std::reverse(seq.begin(), seq.end());
                return seq;
            }
            if (!progressed) continue;  // ε step in every hypothesis
            if (visited.size() >= max_joint_states) continue;
            if (visited.insert(next).second) {
                nodes.push_back({std::move(next), idx, in});
                frontier.push_back(
                    static_cast<std::uint32_t>(nodes.size() - 1));
            }
        }
    }
    return std::nullopt;
}

bool observationally_equivalent(const system& spec, const diagnosis& a,
                                const diagnosis& b,
                                std::size_t max_states) {
    hypothesis_tracker tracker(spec, {a, b});
    if (tracker.count() < 2) return true;  // identical hypotheses
    return !tracker.find_splitting_sequence(max_states).has_value();
}

}  // namespace cfsmdiag
