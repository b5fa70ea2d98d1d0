#include "diag/discrim_engine.hpp"

#include <algorithm>
#include <unordered_set>

#include "diag/additional_tests.hpp"
#include "diag/discriminate.hpp"
#include "diag/replay_cache.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace cfsmdiag {
namespace {

thread_local discrim_counters g_counters;

/// Must match simulator.cpp's default budget: the chain-safety analysis
/// proves spec chains terminate within it.
constexpr std::size_t hop_budget = 1024;

/// Joint spaces up to this many states use the epoch-tagged dense visited
/// array (16 MiB of u32 epochs at the cap, allocated once per thread and
/// reused); larger spaces fall back to a hashed visited set.
constexpr std::uint64_t dense_visited_cap = std::uint64_t{1} << 22;

/// Layer-2 limits: product state space and pair-graph edge count a pairwise
/// table may cost, and the largest hypothesis-set size worth the O(k²)
/// pair gathering.
constexpr std::uint32_t pair_state_cap = 128;
constexpr std::uint64_t pair_edge_cap = std::uint64_t{1} << 21;
constexpr std::size_t pair_k_cap = 16;

/// True when no specification chain can ever throw: every internal
/// transition sends a real (non-ε) message, the internal successor graph
/// (transition t can trigger transition t' in its destination machine) is
/// acyclic, and the longest possible chain — bounded by the transition
/// count in an acyclic graph — fits the simulator's hop budget.  The
/// reference joint search computes a spec step for every explored
/// (state, input), so a throwing spec chain is observable behaviour the
/// flat path must not silently lose; this analysis is the conservative
/// gate.
bool spec_chains_safe(const compiled_spec& cs) {
    if (cs.total > hop_budget) return false;
    for (std::uint32_t t = 0; t < cs.total; ++t) {
        if (cs.is_internal[t] && cs.out_sym[t] == 0) return false;
    }
    // Iterative three-color DFS over the transition successor graph.
    std::vector<std::uint8_t> color(cs.total, 0);  // 0 new, 1 open, 2 done
    std::vector<std::uint32_t> succ_scratch;
    const auto successors = [&](std::uint32_t t) {
        succ_scratch.clear();
        if (!cs.is_internal[t]) return;
        const std::uint32_t m = cs.dest[t];
        const std::uint32_t msg = cs.out_sym[t];
        if (msg >= cs.disp_stride[m]) return;
        for (std::uint32_t s = 0; s < cs.state_count[m]; ++s) {
            const std::uint32_t d =
                cs.dispatch[cs.disp_offset[m] + s * cs.disp_stride[m] + msg];
            if (d != invalid_index) succ_scratch.push_back(d);
        }
    };
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    std::vector<std::vector<std::uint32_t>> succ(cs.total);
    for (std::uint32_t t = 0; t < cs.total; ++t) {
        successors(t);
        succ[t] = succ_scratch;
    }
    for (std::uint32_t root = 0; root < cs.total; ++root) {
        if (color[root] != 0) continue;
        stack.emplace_back(root, 0);
        color[root] = 1;
        while (!stack.empty()) {
            auto& [t, next] = stack.back();
            if (next < succ[t].size()) {
                const std::uint32_t s = succ[t][next++];
                if (color[s] == 1) return false;  // back edge: cycle
                if (color[s] == 0) {
                    color[s] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                color[t] = 2;
                stack.pop_back();
            }
        }
    }
    return true;
}

/// The reference search constructs one simulator per hypothesis, which
/// validates its overrides; replicating those checks (same order, same
/// messages) keeps the engine's behaviour on malformed hypotheses
/// byte-identical to the reference path.
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
/// Needs only the dense universe (never the packing), so keys exist even
/// when the flat search does not.
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
    flat_ok_ = cs.packable && spec_chains_safe(cs);
}

std::uint32_t discrim_engine::product_index(
    std::uint64_t packed) const noexcept {
    std::uint32_t idx = 0;
    const std::size_t machines = uni_.stride.size();
    for (std::size_t m = 0; m < machines; ++m) {
        const auto local = static_cast<std::uint32_t>(
            (packed >> cs_->state_shift[m]) & cs_->state_mask[m]);
        idx += local * uni_.stride[m];
    }
    return idx;
}

bool discrim_engine::ensure_universe() const {
    std::call_once(universe_once_, [this] {
        const std::size_t machines = cs_->state_count.size();
        uni_.stride.resize(machines);
        std::uint64_t size = 1;
        for (std::size_t m = 0; m < machines; ++m) {
            uni_.stride[m] = static_cast<std::uint32_t>(size);
            size *= cs_->state_count[m];
            if (size > dense_visited_cap) {
                uni_.size = 0;  // dense indexing unavailable
                return;
            }
        }
        uni_.size = static_cast<std::uint32_t>(size);
        const std::uint64_t inputs = in_port_.size();
        if (uni_.size == 0 || uni_.size > pair_state_cap ||
            static_cast<std::uint64_t>(uni_.size) * uni_.size * inputs >
                pair_edge_cap)
            return;

        // Enumerate the product space: index → packed state.
        uni_.packed.resize(uni_.size);
        for (std::uint32_t u = 0; u < uni_.size; ++u) {
            std::uint64_t packed = 0;
            std::uint32_t rest = u;
            for (std::size_t m = 0; m < machines; ++m) {
                const std::uint32_t local = rest % cs_->state_count[m];
                rest /= cs_->state_count[m];
                packed |= static_cast<std::uint64_t>(local)
                          << cs_->state_shift[m];
            }
            uni_.packed[u] = packed;
        }

        // Spec dynamics (chain-safe: cannot throw).
        const std::size_t cols = in_port_.size();
        std::vector<std::uint32_t> succ(uni_.size * cols);
        std::vector<std::uint64_t> obs(uni_.size * cols);
        for (std::uint32_t u = 0; u < uni_.size; ++u) {
            for (std::size_t in = 0; in < cols; ++in) {
                std::uint64_t st = uni_.packed[u];
                obs[u * cols + in] = flat_step(*cs_, *spec_, st,
                                               in_port_[in], in_sym_[in],
                                               nullptr, 0);
                succ[u * cols + in] = product_index(st);
            }
        }

        // Moore refinement into observational-equivalence classes: states
        // are merged iff every input yields the same observation and
        // equivalent successors.  Deterministic class ids (first-seen
        // order) — they only ever feed equality checks.
        uni_.cls.assign(uni_.size, 0);
        std::vector<std::uint32_t> next_cls(uni_.size);
        std::size_t classes = 1;
        for (;;) {
            std::unordered_map<key_type, std::uint32_t, key_hash> sig_ids;
            key_type sig;
            for (std::uint32_t u = 0; u < uni_.size; ++u) {
                sig.clear();
                sig.push_back(uni_.cls[u]);
                for (std::size_t in = 0; in < cols; ++in) {
                    const std::uint64_t o = obs[u * cols + in];
                    sig.push_back(static_cast<std::uint32_t>(o >> 32));
                    sig.push_back(static_cast<std::uint32_t>(o));
                    sig.push_back(uni_.cls[succ[u * cols + in]]);
                }
                const auto [it, inserted] = sig_ids.emplace(
                    sig, static_cast<std::uint32_t>(sig_ids.size()));
                next_cls[u] = it->second;
                (void)inserted;
            }
            const std::size_t refined = sig_ids.size();
            uni_.cls.swap(next_cls);
            if (refined == classes) break;
            classes = refined;
        }
        uni_.ok = true;
    });
    return uni_.ok;
}

std::shared_ptr<const discrim_engine::hyp_tables>
discrim_engine::hyp_dynamics_locked(const flat_hyp& h) const {
    const auto it = hyp_cache_.find(h.enc);
    if (it != hyp_cache_.end()) return it->second;

    const std::uint32_t S = uni_.size;
    const std::size_t cols = in_port_.size();
    auto t = std::make_shared<hyp_tables>();
    t->succ.resize(static_cast<std::size_t>(S) * cols);
    t->obs.resize(static_cast<std::size_t>(S) * cols);
    t->fired = dyn_bitset(static_cast<std::size_t>(S) * cols);
    t->throws = dyn_bitset(static_cast<std::size_t>(S) * cols);
    t->live = dyn_bitset(S);

    // Seeds of the liveness closure: states that directly fire an
    // overridden target (or whose step throws — a throwing state must
    // never be classified as spec-equivalent).
    for (std::uint32_t u = 0; u < S; ++u) {
        for (std::size_t in = 0; in < cols; ++in) {
            const std::size_t cell = static_cast<std::size_t>(u) * cols + in;
            std::uint64_t st = uni_.packed[u];
            bool fired = false;
            bool hit = false;
            try {
                t->obs[cell] =
                    flat_step(*cs_, *spec_, st, in_port_[in], in_sym_[in],
                              h.ovs.data(), h.ovs.size(), &fired, &hit);
            } catch (const error&) {
                t->throws.set(cell);
                t->live.set(u);
                t->succ[cell] = u;  // unused: throw cells are dead ends
                continue;
            }
            if (fired) t->fired.set(cell);
            if (hit) t->live.set(u);
            t->succ[cell] = product_index(st);
        }
    }

    // Backward closure of liveness over the mutant step graph (throw cells
    // excluded — they are seeds, not edges).
    std::vector<std::uint32_t> work = t->live.to_indices();
    std::vector<std::uint32_t> rev_off(S + 1, 0);
    std::vector<std::uint32_t> rev(static_cast<std::size_t>(S) * cols);
    for (std::uint32_t u = 0; u < S; ++u) {
        for (std::size_t in = 0; in < cols; ++in) {
            const std::size_t cell = static_cast<std::size_t>(u) * cols + in;
            if (!t->throws.test(cell)) ++rev_off[t->succ[cell] + 1];
        }
    }
    for (std::uint32_t v = 0; v < S; ++v) rev_off[v + 1] += rev_off[v];
    {
        std::vector<std::uint32_t> cursor(rev_off.begin(),
                                          rev_off.end() - 1);
        for (std::uint32_t u = 0; u < S; ++u) {
            for (std::size_t in = 0; in < cols; ++in) {
                const std::size_t cell =
                    static_cast<std::size_t>(u) * cols + in;
                if (!t->throws.test(cell)) rev[cursor[t->succ[cell]]++] = u;
            }
        }
    }
    while (!work.empty()) {
        const std::uint32_t v = work.back();
        work.pop_back();
        for (std::uint32_t e = rev_off[v]; e < rev_off[v + 1]; ++e) {
            const std::uint32_t u = rev[e];
            if (!t->live.test(u)) {
                t->live.set(u);
                work.push_back(u);
            }
        }
    }

    return hyp_cache_.emplace(h.enc, std::move(t)).first->second;
}

std::shared_ptr<const dyn_bitset> discrim_engine::pair_map(
    const flat_hyp& a, const flat_hyp& b) const {
    // Canonical unordered key: the lexicographically smaller encoding
    // first.  A swapped query reads bit (v, u) instead of (u, v).
    const bool swapped = b.enc < a.enc;
    const flat_hyp& first = swapped ? b : a;
    const flat_hyp& second = swapped ? a : b;
    key_type key = first.enc;
    key.insert(key.end(), second.enc.begin(), second.enc.end());
    const auto it = pair_cache_.find(key);
    if (it != pair_cache_.end()) return it->second;

    const auto ta = hyp_dynamics_locked(first);
    const auto tb = hyp_dynamics_locked(second);
    const std::uint32_t S = uni_.size;
    const std::size_t cols = in_port_.size();
    const std::size_t pairs = static_cast<std::size_t>(S) * S;

    auto map = std::make_shared<dyn_bitset>(pairs);
    std::vector<std::uint32_t> work;

    // Forward edges of the live pair region (either side can still fire
    // its target); dead-dead pairs are final — the mutants behave exactly
    // like the spec from there, so disagreement reachability is Moore
    // class inequality.
    std::vector<std::uint32_t> edge_src;
    std::vector<std::uint32_t> edge_dst;
    for (std::uint32_t u = 0; u < S; ++u) {
        const bool live_a = ta->live.test(u);
        for (std::uint32_t v = 0; v < S; ++v) {
            const std::uint32_t p = u * S + v;
            if (!live_a && !tb->live.test(v)) {
                if (uni_.cls[u] != uni_.cls[v]) {
                    map->set(p);
                    work.push_back(p);
                }
                continue;
            }
            bool seed = false;
            for (std::size_t in = 0; in < cols; ++in) {
                const std::size_t ca =
                    static_cast<std::size_t>(u) * cols + in;
                const std::size_t cb =
                    static_cast<std::size_t>(v) * cols + in;
                if (ta->throws.test(ca) || tb->throws.test(cb) ||
                    ta->obs[ca] != tb->obs[cb]) {
                    seed = true;
                    continue;
                }
                edge_src.push_back(p);
                edge_dst.push_back(ta->succ[ca] * S + tb->succ[cb]);
            }
            if (seed && !map->test(p)) {
                map->set(p);
                work.push_back(p);
            }
        }
    }

    // Reverse CSR + backward reachability from every seed.
    std::vector<std::uint32_t> rev_off(pairs + 1, 0);
    for (std::uint32_t d : edge_dst) ++rev_off[d + 1];
    for (std::size_t p = 0; p < pairs; ++p) rev_off[p + 1] += rev_off[p];
    std::vector<std::uint32_t> rev(edge_dst.size());
    {
        std::vector<std::uint32_t> cursor(rev_off.begin(),
                                          rev_off.end() - 1);
        for (std::size_t e = 0; e < edge_dst.size(); ++e)
            rev[cursor[edge_dst[e]]++] = edge_src[e];
    }
    while (!work.empty()) {
        const std::uint32_t p = work.back();
        work.pop_back();
        for (std::uint32_t e = rev_off[p]; e < rev_off[p + 1]; ++e) {
            const std::uint32_t q = rev[e];
            if (!map->test(q)) {
                map->set(q);
                work.push_back(q);
            }
        }
    }

    return pair_cache_.emplace(std::move(key), std::move(map))
        .first->second;
}

std::optional<std::vector<global_input>> discrim_engine::flat_search(
    const std::vector<flat_hyp>& hyps, std::size_t max_joint_states,
    const std::vector<const dyn_bitset*>& pair_maps) const {
    const std::size_t k = hyps.size();
    const std::size_t cols = in_port_.size();
    const std::uint32_t S = uni_.size;  // 0 = dense indexing unavailable

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
    // Pruning is exact only when the reference search provably never hits
    // its visited cap (every joint state it could ever insert fits).
    const bool prune =
        !pair_maps.empty() && joint_bound != 0 &&
        joint_bound <= max_joint_states;

    // Flat node storage: k packed states per node + parent/via chains.
    std::vector<std::uint64_t> states;
    states.reserve(k * 256);
    std::vector<std::uint32_t> parent{invalid_index};
    std::vector<std::uint32_t> via{invalid_index};
    for (std::size_t i = 0; i < k; ++i)
        states.push_back(cs_->initial_packed);
    std::size_t visited_count = 1;

    const auto joint_index = [&](const std::uint64_t* st) {
        std::uint64_t idx = 0;
        for (std::size_t i = k; i-- > 0;)
            idx = idx * S + product_index(st[i]);
        return idx;
    };

    if (dense) {
        g_dense.begin(joint_bound);
        g_dense.insert(joint_index(states.data()));
    }
    struct node_hash {
        const std::vector<std::uint64_t>* st;
        std::size_t k;
        std::size_t operator()(std::uint32_t n) const noexcept {
            std::size_t h = 0x811c9dc5u;
            for (std::size_t i = 0; i < k; ++i) {
                const std::uint64_t w = (*st)[n * k + i];
                h = (h ^ w) * 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            }
            return h;
        }
    };
    struct node_eq {
        const std::vector<std::uint64_t>* st;
        std::size_t k;
        bool operator()(std::uint32_t a, std::uint32_t b) const noexcept {
            return std::equal(st->begin() + a * k, st->begin() + (a + 1) * k,
                              st->begin() + b * k);
        }
    };
    std::unordered_set<std::uint32_t, node_hash, node_eq> hashed(
        16, node_hash{&states, k}, node_eq{&states, k});
    if (!dense) hashed.insert(0);

    std::vector<std::uint64_t> cur(k);
    std::vector<std::uint64_t> next(k);
    for (std::size_t head = 0; head < parent.size(); ++head) {
        // One governed unit per expansion; the BFS frontier is the search's
        // dominant allocation, so it is what the memory quota sees.
        detail::budget_poll();
        detail::budget_note_memory(states.capacity() *
                                   sizeof(std::uint64_t));
        std::copy(states.begin() + head * k,
                  states.begin() + (head + 1) * k, cur.begin());
        for (std::size_t in = 0; in < cols; ++in) {
            bool disagree = false;
            bool progressed = false;
            std::uint64_t first_obs = 0;
            for (std::size_t i = 0; i < k; ++i) {
                next[i] = cur[i];
                bool fired = false;
                const std::uint64_t obs =
                    flat_step(*cs_, *spec_, next[i], in_port_[in],
                              in_sym_[in], hyps[i].ovs.data(),
                              hyps[i].ovs.size(), &fired);
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
            if (prune) {
                // Barren joint state: no hypothesis pair can ever disagree
                // (or throw) from here — its whole subtree is silent, and
                // with the cap provably unreachable, skipping it cannot
                // change the first disagreement found.
                bool barren = true;
                std::size_t pi = 0;
                for (std::size_t i = 0; i + 1 < k && barren; ++i) {
                    const std::uint32_t ui = product_index(next[i]);
                    for (std::size_t j = i + 1; j < k && barren; ++j) {
                        const std::uint32_t uj = product_index(next[j]);
                        if (pair_maps[pi++]->test(
                                static_cast<std::size_t>(ui) * S + uj))
                            barren = false;
                    }
                }
                if (barren) continue;
            }
            bool inserted = false;
            if (dense) {
                inserted = g_dense.insert(joint_index(next.data()));
            } else {
                // Tentative push: hash/equality read the candidate's words
                // in place; roll back when already visited.
                const auto candidate =
                    static_cast<std::uint32_t>(parent.size());
                states.insert(states.end(), next.begin(), next.end());
                if (hashed.insert(candidate).second) {
                    inserted = true;
                } else {
                    states.resize(states.size() - k);
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

std::optional<std::vector<global_input>> discrim_engine::compute(
    const std::vector<flat_hyp>& hyps,
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states) const {
    if (!flat_ok_)
        return cfsmdiag::splitting_sequence(*spec_, hypotheses,
                                            max_joint_states);

    const std::size_t k = hyps.size();
    const bool have_tables = ensure_universe();  // also fills the strides
                                                 // the dense visited needs
    std::vector<const dyn_bitset*> pair_maps;
    std::vector<std::shared_ptr<const dyn_bitset>> pair_keep;
    if (k <= pair_k_cap && have_tables) {
        const std::lock_guard<std::mutex> lock(tables_mutex_);
        pair_keep.reserve(k * (k - 1) / 2);
        for (std::size_t i = 0; i + 1 < k; ++i) {
            for (std::size_t j = i + 1; j < k; ++j)
                pair_keep.push_back(pair_map(hyps[i], hyps[j]));
        }
        // `hyps` is sorted by encoding, so every pair_map(hyps[i],
        // hyps[j]) with i < j is already in canonical orientation — bit
        // (u, v) means "hypothesis i from u vs hypothesis j from v".
        const std::uint32_t init = product_index(cs_->initial_packed);
        bool all_safe = true;
        for (const auto& m : pair_keep) {
            if (m->test(static_cast<std::size_t>(init) * uni_.size + init))
                all_safe = false;
        }
        if (all_safe) {
            // No hypothesis pair can reach a disagreement (or a throwing
            // state) from reset: the reference search — capped or not —
            // returns nullopt.
            ++g_counters.table_answers;
            return std::nullopt;
        }
        pair_maps.reserve(pair_keep.size());
        for (const auto& m : pair_keep) pair_maps.push_back(m.get());
    }
    ++g_counters.bfs_searches;
    return flat_search(hyps, max_joint_states, pair_maps);
}

std::optional<std::vector<global_input>> discrim_engine::splitting_sequence(
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states) const {
    if (hypotheses.size() < 2) return std::nullopt;

    // Canonicalize: lowered overrides + sorted hypothesis order.  The
    // joint search's result is invariant under hypothesis permutation
    // (DESIGN.md §5f), so sorting is safe and makes the memo key — and
    // the pairwise-table cache — independent of caller order.
    std::vector<flat_hyp> hyps;
    hyps.reserve(hypotheses.size());
    for (const auto& ovs : hypotheses) {
        validate_overrides(*spec_, ovs);
        flat_hyp h;
        h.enc = encode_hypothesis(*cs_, ovs);
        if (flat_ok_) {
            h.ovs.reserve(ovs.size());
            for (const transition_override& ov : ovs)
                h.ovs.push_back(lower_override(*cs_, ov));
        }
        hyps.push_back(std::move(h));
    }
    std::sort(hyps.begin(), hyps.end(),
              [](const flat_hyp& a, const flat_hyp& b) {
                  return a.enc < b.enc;
              });

    key_type key;
    key.push_back(static_cast<std::uint32_t>(max_joint_states));
    key.push_back(
        static_cast<std::uint32_t>(std::uint64_t{max_joint_states} >> 32));
    key.push_back(static_cast<std::uint32_t>(hyps.size()));
    for (const flat_hyp& h : hyps)
        key.insert(key.end(), h.enc.begin(), h.enc.end());

    memo_shard& shard = memo_[key_hash{}(key) % memo_shards];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        ++g_counters.memo_hits;
        detail::budget_charge(it->second.steps);
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
    memo_value value{compute(hyps, hypotheses, max_joint_states), 0};
    value.steps = counting->steps_used() - before;
    auto result = value.sequence;
    shard.map.emplace(std::move(key), std::move(value));
    return result;
}

std::shared_ptr<const sequence_replay> discrim_engine::replay_for(
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
    const std::lock_guard<std::mutex> lock(replay_mutex_);
    const auto it = replay_cache_.find(key);
    if (it != replay_cache_.end()) return it->second;
    // sequence_replay keeps a pointer to the input vector it was built
    // from, so the cache entry owns a stable copy and the returned handle
    // aliases the replay inside it.
    struct cached_replay {
        std::vector<global_input> inputs;
        sequence_replay rep;
        cached_replay(const system& spec, std::vector<global_input> in)
            : inputs(std::move(in)), rep(spec, inputs) {}
    };
    auto holder = std::make_shared<const cached_replay>(*spec_, inputs);
    std::shared_ptr<const sequence_replay> rep(holder, &holder->rep);
    replay_cache_.emplace(std::move(key), rep);
    return rep;
}

std::shared_ptr<const std::vector<proposed_test>>
discrim_engine::structured_proposals(const hypothesis_tracker& tracker,
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
    // alive() is sorted and deduplicated by the tracker, so its encoding
    // is canonical for the live set.
    for (const diagnosis& d : tracker.alive()) {
        const key_type enc = encode_hypothesis(*cs_, {d.to_override()});
        key.insert(key.end(), enc.begin(), enc.end());
    }
    const std::lock_guard<std::mutex> lock(proposal_mutex_);
    const auto it = proposal_cache_.find(key);
    if (it != proposal_cache_.end()) return it->second;
    auto props = std::make_shared<const std::vector<proposed_test>>(
        propose_structured_tests(*spec_, tracker, options));
    proposal_cache_.emplace(std::move(key), props);
    return props;
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
