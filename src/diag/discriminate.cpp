#include "diag/discriminate.hpp"

#include <algorithm>

#include "diag/spec_context.hpp"

namespace cfsmdiag {

std::vector<global_input> all_port_inputs(const system& spec) {
    std::vector<global_input> inputs;
    for (std::uint32_t mi = 0; mi < spec.machine_count(); ++mi) {
        for (symbol s : spec.machine(machine_id{mi}).input_alphabet())
            inputs.push_back(global_input::at(machine_id{mi}, s));
    }
    return inputs;
}

hypothesis_tracker::hypothesis_tracker(const discrim_engine& engine,
                                       std::vector<diagnosis> initial)
    : engine_(&engine), alive_(std::move(initial)) {
    std::sort(alive_.begin(), alive_.end());
    alive_.erase(std::unique(alive_.begin(), alive_.end()), alive_.end());
}

bool hypothesis_tracker::splits(
    const std::vector<global_input>& inputs) const {
    if (alive_.size() < 2) return false;
    // One spec replay of `inputs`, shared through the engine; each
    // hypothesis then steps only from its first firing.
    const auto seq = engine_->replay_for(inputs);
    flat_replayer same_as_first(*seq,
                                seq->predict(alive_[0].to_override()));
    for (std::size_t i = 1; i < alive_.size(); ++i) {
        if (!same_as_first.matches(alive_[i].to_override())) return true;
    }
    return false;
}

std::size_t hypothesis_tracker::apply_result(
    const std::vector<global_input>& inputs,
    const std::vector<observation>& observed) {
    const std::size_t before = alive_.size();
    if (observed.size() != inputs.size()) {
        alive_.clear();
        return before;
    }
    const auto seq = engine_->replay_for(inputs);
    std::vector<std::uint64_t> packed;
    packed.reserve(observed.size());
    for (const observation& o : observed) packed.push_back(pack_observation(o));
    flat_replayer answer(*seq, std::move(packed));
    std::vector<diagnosis> survivors;
    survivors.reserve(alive_.size());
    for (const diagnosis& d : alive_) {
        if (answer.matches(d.to_override())) survivors.push_back(d);
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
    return engine_->splitting_sequence(hyps, max_joint_states);
}

bool observationally_equivalent(const system& spec, const diagnosis& a,
                                const diagnosis& b,
                                std::size_t max_states) {
    if (a == b) return true;  // identical hypotheses
    const spec_context ctx(spec, {});
    // In the order a tracker holds them, so a malformed pair throws alike.
    return observationally_equivalent(ctx.discrim(), std::min(a, b),
                                      std::max(a, b), max_states);
}

}  // namespace cfsmdiag
