// The reference Steps 4-6 (ref_oracle.hpp): conflict and candidate sets by
// std::set algebra, Step 5B by replaying the suite on the reference
// simulator, and Step 6's joint search with one simulator per hypothesis.
#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ref_oracle.hpp"

namespace cfsmdiag::ref_oracle {
namespace {

/// Builds the survivor index lists (Step 5C) over `evaluated`.
void select_survivors(diagnostic_candidates& dc) {
    for (std::size_t i = 0; i < dc.evaluated.size(); ++i) {
        const evaluated_candidate& c = dc.evaluated[i];
        if (c.is_ust) {
            if (!c.outputs.empty() || !c.statout.empty() ||
                !c.end_states.empty())
                dc.ust = i;
            continue;
        }
        if (!c.end_states.empty()) dc.dctr.push_back(i);
        if (!c.outputs.empty() || !c.statout.empty()) dc.dcco.push_back(i);
    }
}

// The joint search memoizes by (system_state, global_input) and tracks
// visited joint states.  These are lookup-only containers — never
// iterated — so hashed containers serve without touching BFS order or
// results.

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

candidate_sets generate_candidates(const system& spec,
                                   const symptom_report& report,
                                   const conflict_sets& confl) {
    candidate_sets out;
    const std::size_t n = spec.machine_count();
    out.itc.resize(n);
    out.ftc_tr.resize(n);
    out.ftc_co.resize(n);

    for (std::uint32_t m = 0; m < n; ++m) {
        const auto& sets = confl.per_machine[m];
        if (sets.empty()) continue;
        // Intersection of all conflict sets of this machine.
        std::set<transition_id> acc = sets.front();
        for (std::size_t k = 1; k < sets.size(); ++k) {
            std::set<transition_id> next;
            std::set_intersection(acc.begin(), acc.end(), sets[k].begin(),
                                  sets[k].end(),
                                  std::inserter(next, next.begin()));
            acc = std::move(next);
        }
        out.itc[m].assign(acc.begin(), acc.end());
    }

    // The ust belongs to the candidate split only if it survived the
    // intersection (it always does when it exists: it is in every
    // symptomatic conflict set of its machine by Definition 4).
    if (report.ust) {
        const auto m = report.ust->machine.value;
        if (std::binary_search(out.itc[m].begin(), out.itc[m].end(),
                               report.ust->transition)) {
            out.ust = report.ust;
        }
    }

    for (std::uint32_t m = 0; m < n; ++m) {
        const fsm& machine = spec.machine(machine_id{m});
        for (transition_id t : out.itc[m]) {
            const bool is_ust = out.ust &&
                                out.ust->machine.value == m &&
                                out.ust->transition == t;
            if (!is_ust) out.ftc_tr[m].push_back(t);
            if (machine.at(t).kind == output_kind::internal)
                out.ftc_co[m].push_back(t);
        }
    }
    return out;
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

diagnostic_candidates evaluate_candidates(const system& spec,
                                          const test_suite& suite,
                                          const symptom_report& report,
                                          const candidate_sets& cands,
                                          const replay_cache* cache) {
    diagnostic_candidates dc;
    const auto alphabets = compute_alphabets(spec);

    for (std::uint32_t m = 0; m < spec.machine_count(); ++m) {
        for (transition_id t : cands.itc[m]) {
            const global_transition_id gid{machine_id{m}, t};
            evaluated_candidate c;
            c.id = gid;
            c.is_ust = cands.ust && *cands.ust == gid;

            if (c.is_ust) {
                // ustprocessing: pool is the single observed uso.
                const std::vector<symbol> pool{report.uso.output};
                if (report.flag) {
                    c.statout = consistent_statout(spec, suite, report, gid,
                                                   pool, cache);
                } else {
                    c.outputs = consistent_outputs(spec, suite, report, gid,
                                                   pool, cache);
                }
            } else {
                const bool in_ftctr = std::binary_search(
                    cands.ftc_tr[m].begin(), cands.ftc_tr[m].end(), t);
                const bool in_ftcco = std::binary_search(
                    cands.ftc_co[m].begin(), cands.ftc_co[m].end(), t);
                if (in_ftctr) {
                    c.end_states =
                        end_states(spec, suite, report, gid, cache);
                }
                if (in_ftcco) {
                    // inttransproc: pool = OIO_{i>j} minus the specified
                    // output.
                    const auto pool =
                        admissible_faulty_outputs(spec, alphabets, gid);
                    if (report.flag) {
                        c.statout = consistent_statout(spec, suite, report,
                                                       gid, pool, cache);
                    } else {
                        c.outputs = consistent_outputs(spec, suite, report,
                                                       gid, pool, cache);
                    }
                }
            }
            dc.evaluated.push_back(std::move(c));
        }
    }
    select_survivors(dc);
    return dc;
}

diagnostic_candidates evaluate_candidates_escalated(
    const system& spec, const test_suite& suite, const symptom_report& report,
    const candidate_sets& cands, bool include_addressing,
    const replay_cache* cache) {
    diagnostic_candidates dc;
    const auto alphabets = compute_alphabets(spec);

    for (std::uint32_t m = 0; m < spec.machine_count(); ++m) {
        for (transition_id t : cands.itc[m]) {
            const global_transition_id gid{machine_id{m}, t};
            evaluated_candidate c;
            c.id = gid;
            c.is_ust = cands.ust && *cands.ust == gid;

            auto pool = admissible_faulty_outputs(spec, alphabets, gid);
            // For external-output transitions the observed uso is also a
            // plausible faulty output even when outside OEO_i (the
            // implementation may emit symbols the spec never does).
            if (c.is_ust && !report.uso.output.is_epsilon() &&
                std::find(pool.begin(), pool.end(), report.uso.output) ==
                    pool.end() &&
                report.uso.output != spec.transition_at(gid).output) {
                pool.push_back(report.uso.output);
            }

            c.end_states = end_states(spec, suite, report, gid, cache);
            c.outputs =
                consistent_outputs(spec, suite, report, gid, pool, cache);
            c.statout =
                consistent_statout(spec, suite, report, gid, pool, cache);
            if (include_addressing) {
                c.destinations =
                    consistent_destinations(spec, suite, report, gid, cache);
            }
            dc.evaluated.push_back(std::move(c));
        }
    }
    select_survivors(dc);
    return dc;
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

}  // namespace cfsmdiag::ref_oracle
