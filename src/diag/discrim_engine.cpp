#include "diag/discrim_engine.hpp"

#include <algorithm>

#include "diag/additional_tests.hpp"
#include "diag/discriminate.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace cfsmdiag {
namespace {

thread_local discrim_counters g_counters;

/// Joint spaces up to this many states use the epoch-tagged dense visited
/// array (16 MiB of u32 epochs at the cap, allocated once per thread and
/// reused); larger spaces fall back to a hashed visited set.
constexpr std::uint64_t dense_visited_cap = std::uint64_t{1} << 22;

/// The checks a simulator makes of its overrides, in the same order and
/// with the same messages, so a malformed hypothesis is refused as the
/// reference simulator refuses it.
void validate_overrides(const system& sys,
                        const std::vector<transition_override>& overrides) {
    for (std::size_t i = 0; i < overrides.size(); ++i) {
        const auto id = overrides[i].target;
        detail::require(id.machine.value < sys.machine_count(),
                        "simulator: override machine out of range");
        detail::require(
            id.transition.value <
                sys.machine(id.machine).transitions().size(),
            "simulator: override transition out of range");
        if (overrides[i].next_state) {
            detail::require(overrides[i].next_state->value <
                                sys.machine(id.machine).state_count(),
                            "simulator: override next state out of range");
        }
        if (overrides[i].destination) {
            detail::require(
                overrides[i].destination->value < sys.machine_count() &&
                    *overrides[i].destination != id.machine,
                "simulator: override destination out of range or self");
        }
        for (std::size_t j = i + 1; j < overrides.size(); ++j) {
            detail::require(overrides[j].target != id,
                            "simulator: overrides must target distinct "
                            "transitions");
        }
    }
}

/// Canonical encoding of one hypothesis (a set of overrides) over compiled
/// ids: per override [dense target, output id | ~0, next state | ~0,
/// destination | ~0], overrides sorted, prefixed by the override count.
std::vector<std::uint32_t> encode_hypothesis(
    const compiled_spec& cs, const std::vector<transition_override>& ovs) {
    std::vector<std::array<std::uint32_t, 4>> blocks;
    blocks.reserve(ovs.size());
    for (const transition_override& ov : ovs) {
        blocks.push_back({cs.dense_id(ov.target),
                          ov.output ? ov.output->id : invalid_index,
                          ov.next_state ? ov.next_state->value : invalid_index,
                          ov.destination ? ov.destination->value
                                         : invalid_index});
    }
    std::sort(blocks.begin(), blocks.end());
    std::vector<std::uint32_t> enc;
    enc.reserve(1 + 4 * blocks.size());
    enc.push_back(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) enc.insert(enc.end(), b.begin(), b.end());
    return enc;
}

/// Dense visited scratch, one per thread, shared by every engine: begin()
/// is O(1), so each search pays one store per joint state and nothing to
/// reset.
thread_local epoch_set g_dense;

}  // namespace

discrim_counters discrim_totals() noexcept { return g_counters; }

std::size_t discrim_engine::key_hash::operator()(
    const key_type& k) const noexcept {
    std::size_t h = 0x811c9dc5u;
    for (std::uint32_t v : k)
        h = (h ^ v) * 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

discrim_engine::discrim_engine(const compiled_spec& cs, const system& spec)
    : cs_(&cs), spec_(&spec) {
    inputs_ = all_port_inputs(spec);
    in_port_.reserve(inputs_.size());
    in_sym_.reserve(inputs_.size());
    for (const global_input& in : inputs_) {
        in_port_.push_back(in.port.value);
        in_sym_.push_back(in.input.id);
    }
    std::uint64_t size = 1;
    stride_.reserve(cs.state_count.size());
    for (const std::uint32_t count : cs.state_count) {
        stride_.push_back(static_cast<std::uint32_t>(size));
        size *= count;
        if (size > dense_visited_cap) {
            size = 0;  // dense indexing unavailable
            break;
        }
    }
    product_size_ = static_cast<std::uint32_t>(size);
}

template <std::size_t W>
std::uint32_t discrim_engine::product_index(
    const std::uint64_t* packed) const noexcept {
    std::uint32_t idx = 0;
    for (std::size_t m = 0; m < stride_.size(); ++m) {
        const auto local = static_cast<std::uint32_t>(
            (packed[cs_->word_of<W>(static_cast<std::uint32_t>(m))] >>
             cs_->state_shift[m]) &
            cs_->state_mask[m]);
        idx += local * stride_[m];
    }
    return idx;
}

template <std::size_t W>
std::optional<std::vector<global_input>> discrim_engine::flat_search(
    const std::vector<flat_hyp>& hyps, std::size_t max_joint_states,
    std::size_t& memory_noted) const {
    const std::size_t k = hyps.size();
    const std::size_t w = cs_->words_in<W>();
    const std::size_t kw = k * w;  // words per joint state
    const std::size_t cols = in_port_.size();
    const std::uint32_t S = product_size_;  // 0 = dense indexing unavailable

    // S^k, saturated at dense_visited_cap + 1.
    std::uint64_t joint_bound = 0;
    if (S != 0) {
        joint_bound = 1;
        for (std::size_t i = 0; i < k && joint_bound != 0; ++i) {
            joint_bound *= S;
            if (joint_bound > dense_visited_cap) joint_bound = 0;
        }
    }
    const bool dense = joint_bound != 0;

    // Flat node storage: k packed states per node + parent/via chains.
    std::vector<std::uint64_t> states;
    states.reserve(kw * 256);
    std::vector<std::uint32_t> parent{invalid_index};
    std::vector<std::uint32_t> via{invalid_index};
    for (std::size_t i = 0; i < k; ++i)
        states.insert(states.end(), cs_->initial_packed.begin(),
                      cs_->initial_packed.end());
    std::size_t visited_count = 1;

    const auto joint_index = [&](const std::uint64_t* st) {
        std::uint64_t idx = 0;
        for (std::size_t i = k; i-- > 0;)
            idx = idx * S + product_index<W>(st + i * w);
        return idx;
    };

    if (dense) {
        g_dense.begin(joint_bound);
        g_dense.insert(joint_index(states.data()));
    }
    packed_set hashed(kw);
    if (!dense) hashed.insert(states.data(), 0);

    std::vector<std::uint64_t> cur(kw);
    std::vector<std::uint64_t> next(kw);
    std::vector<std::uint64_t> spec_state(w);
    // A search that stepped the spec before each hypothesis would throw the
    // spec's error first.  Where a hypothesis fires none of its targets its
    // step is the spec's own, error included; where it fires one, the spec
    // is stepped from the same state, so its error still comes first.
    const auto check_spec = [&](const std::uint64_t* from, std::size_t in) {
        std::copy_n(from, w, spec_state.data());
        (void)flat_step<W>(*cs_, *spec_, spec_state.data(), in_port_[in],
                           in_sym_[in], nullptr, 0);
    };
    for (std::size_t head = 0; head < parent.size(); ++head) {
        // One governed unit per expansion; the BFS frontier is the search's
        // dominant allocation, so it is what the memory quota sees.  Its
        // capacity never shrinks, so the last note is the largest.
        detail::budget_poll();
        memory_noted = states.capacity() * sizeof(std::uint64_t);
        detail::budget_note_memory(memory_noted);
        std::copy(states.begin() + head * kw,
                  states.begin() + (head + 1) * kw, cur.begin());
        for (std::size_t in = 0; in < cols; ++in) {
            bool disagree = false;
            bool progressed = false;
            std::uint64_t first_obs = 0;
            for (std::size_t i = 0; i < k; ++i) {
                std::copy_n(cur.data() + i * w, w, next.data() + i * w);
                bool fired = false;
                bool hit = false;
                std::uint64_t obs = 0;
                try {
                    obs = flat_step<W>(*cs_, *spec_, next.data() + i * w,
                                       in_port_[in], in_sym_[in],
                                       hyps[i].ovs.data(), hyps[i].ovs.size(),
                                       &fired, &hit);
                } catch (const error&) {
                    if (hit) check_spec(cur.data() + i * w, in);
                    throw;
                }
                if (hit) check_spec(cur.data() + i * w, in);
                progressed = progressed || fired;
                if (i == 0) {
                    first_obs = obs;
                } else if (obs != first_obs) {
                    disagree = true;
                }
            }
            if (disagree) {
                std::vector<global_input> seq{inputs_[in]};
                std::uint32_t at = static_cast<std::uint32_t>(head);
                while (parent[at] != invalid_index) {
                    seq.push_back(inputs_[via[at]]);
                    at = parent[at];
                }
                std::reverse(seq.begin(), seq.end());
                g_counters.joint_states += visited_count;
                return seq;
            }
            if (!progressed) continue;  // ε step in every hypothesis
            if (visited_count >= max_joint_states) continue;
            bool inserted = false;
            if (dense) {
                inserted = g_dense.insert(joint_index(next.data()));
            } else {
                // Tentative push: the set reads the candidate's words in
                // place; roll back when already visited.
                const auto candidate =
                    static_cast<std::uint32_t>(parent.size());
                states.insert(states.end(), next.begin(), next.end());
                if (hashed.insert(states.data(), candidate)) {
                    inserted = true;
                } else {
                    states.resize(states.size() - kw);
                }
            }
            if (inserted) {
                ++visited_count;
                if (dense)
                    states.insert(states.end(), next.begin(), next.end());
                parent.push_back(static_cast<std::uint32_t>(head));
                via.push_back(static_cast<std::uint32_t>(in));
            }
        }
    }
    g_counters.joint_states += visited_count;
    return std::nullopt;
}

std::optional<std::vector<global_input>> discrim_engine::splitting_sequence(
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states) const {
    if (hypotheses.size() < 2) return std::nullopt;

    // Lower the hypotheses in the caller's order, which the search steps
    // them in, so that its first error is the one a search stepping them
    // in that order throws.  The memo key lists them sorted: the result
    // does not depend on their order (DESIGN.md §5f), and a search that
    // throws stores nothing.
    std::vector<flat_hyp> hyps;
    hyps.reserve(hypotheses.size());
    for (const auto& ovs : hypotheses) {
        validate_overrides(*spec_, ovs);
        flat_hyp h;
        h.enc = encode_hypothesis(*cs_, ovs);
        h.ovs.reserve(ovs.size());
        for (const transition_override& ov : ovs)
            h.ovs.push_back(lower_override(*cs_, ov));
        hyps.push_back(std::move(h));
    }
    std::vector<const key_type*> sorted;
    sorted.reserve(hyps.size());
    for (const flat_hyp& h : hyps) sorted.push_back(&h.enc);
    std::sort(sorted.begin(), sorted.end(),
              [](const key_type* a, const key_type* b) { return *a < *b; });

    key_type key;
    key.push_back(static_cast<std::uint32_t>(max_joint_states));
    key.push_back(
        static_cast<std::uint32_t>(std::uint64_t{max_joint_states} >> 32));
    key.push_back(static_cast<std::uint32_t>(hyps.size()));
    for (const key_type* enc : sorted)
        key.insert(key.end(), enc->begin(), enc->end());

    memo_shard& shard = memo_[key_hash{}(key) % memo_shards];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        ++g_counters.memo_hits;
        detail::budget_charge(it->second.steps);
        if (it->second.memory != 0)  // 0: the search noted nothing
            detail::budget_note_memory(it->second.memory);
        return it->second.sequence;
    }
    ++g_counters.memo_misses;
    // Count the search's polls on the installed budget, or on a limit-free
    // meter when nothing governs this call, so every later hit can be
    // charged them.  A search that starves throws and records nothing.
    run_budget meter;
    const run_budget* counting = detail::current_budget();
    std::optional<budget_scope> metering;
    if (!counting) {
        metering.emplace(&meter);
        counting = &meter;
    }
    const std::uint64_t before = counting->steps_used();
    memo_value value;
    ++g_counters.bfs_searches;
    value.sequence =
        cs_->words == 1
            ? flat_search<1>(hyps, max_joint_states, value.memory)
            : flat_search<runtime_words>(hyps, max_joint_states,
                                         value.memory);
    value.steps = counting->steps_used() - before;
    auto result = value.sequence;
    shard.map.emplace(std::move(key), std::move(value));
    return result;
}

std::shared_ptr<const flat_sequence> discrim_engine::replay_for(
    const std::vector<global_input>& inputs) const {
    key_type key;
    key.reserve(inputs.size() * 2);
    for (const global_input& in : inputs) {
        if (in.action == global_input::kind::reset) {
            key.push_back(~std::uint32_t{0});
            key.push_back(~std::uint32_t{0});
        } else {
            key.push_back(in.port.value);
            key.push_back(in.input.id);
        }
    }
    const std::lock_guard<std::mutex> lock(sequence_mutex_);
    const auto it = sequence_cache_.find(key);
    if (it != sequence_cache_.end()) return it->second;
    auto rep = std::make_shared<const flat_sequence>(*cs_, *spec_, inputs);
    sequence_cache_.emplace(std::move(key), rep);
    return rep;
}

std::shared_ptr<const std::vector<proposed_test>>
discrim_engine::structured_proposals(const std::vector<diagnosis>& alive,
                                     const step6_options& options) const {
    key_type key;
    const auto push64 = [&key](std::uint64_t v) {
        key.push_back(static_cast<std::uint32_t>(v));
        key.push_back(static_cast<std::uint32_t>(v >> 32));
    };
    push64(options.search.max_states);
    push64(options.max_proposals);
    key.push_back(options.search.skip_null_steps ? 1u : 0u);
    key.push_back(static_cast<std::uint32_t>(options.search.avoid.size()));
    for (const global_transition_id& t : options.search.avoid) {
        key.push_back(t.machine.value);
        key.push_back(t.transition.value);
    }
    // `alive` is sorted and deduplicated, so its encoding is canonical for
    // the live set.
    for (const diagnosis& d : alive) {
        const key_type enc = encode_hypothesis(*cs_, {d.to_override()});
        key.insert(key.end(), enc.begin(), enc.end());
    }
    const std::lock_guard<std::mutex> lock(proposal_mutex_);
    const auto it = proposal_cache_.find(key);
    if (it != proposal_cache_.end()) return it->second;
    auto props = std::make_shared<const std::vector<proposed_test>>(
        propose_structured_tests(
            *spec_, alive, options,
            [this](machine_id m, state_id s,
                   const global_search_options& search) {
                return transfer_for(m, s, search);
            }));
    proposal_cache_.emplace(std::move(key), props);
    return props;
}

std::optional<std::vector<global_input>> discrim_engine::transfer_for(
    machine_id m, state_id s, const global_search_options& search) const {
    key_type key{m.value, s.value,
                 static_cast<std::uint32_t>(search.max_states),
                 static_cast<std::uint32_t>(
                     std::uint64_t{search.max_states} >> 32),
                 search.skip_null_steps ? 1u : 0u};
    for (const global_transition_id& t : search.avoid) {
        key.push_back(t.machine.value);
        key.push_back(t.transition.value);
    }
    const std::lock_guard<std::mutex> lock(transfer_mutex_);
    const auto it = transfer_cache_.find(key);
    if (it != transfer_cache_.end()) return it->second;
    auto transfer = global_transfer_to_machine_state(*cs_, *spec_, m, s, search);
    transfer_cache_.emplace(std::move(key), transfer);
    return transfer;
}

bool observationally_equivalent(const discrim_engine& engine,
                                const diagnosis& a, const diagnosis& b,
                                std::size_t max_states) {
    if (a == b) return true;  // identical hypotheses
    return !engine
                .splitting_sequence({{a.to_override()}, {b.to_override()}},
                                    max_states)
                .has_value();
}

}  // namespace cfsmdiag
