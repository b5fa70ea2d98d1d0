#include "diag/diagnosis.hpp"

#include <algorithm>
#include <set>

#include "fault/enumerate.hpp"

namespace cfsmdiag {
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

}  // namespace

std::vector<diagnosis> diagnostic_candidates::diagnoses() const {
    std::vector<diagnosis> out;
    for (const evaluated_candidate& c : evaluated) {
        for (state_id s : c.end_states)
            out.push_back({c.id, std::nullopt, s, std::nullopt});
        for (symbol o : c.outputs)
            out.push_back({c.id, o, std::nullopt, std::nullopt});
        for (const auto& [s, o] : c.statout)
            out.push_back({c.id, o, s, std::nullopt});
        for (machine_id d : c.destinations)
            out.push_back({c.id, std::nullopt, std::nullopt, d});
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::string to_string(step6_case c) {
    switch (c) {
        case step6_case::none: return "none";
        case step6_case::case1: return "Case 1";
        case step6_case::case2: return "Case 2";
        case step6_case::case3: return "Case 3";
        case step6_case::case4: return "Case 4";
        case step6_case::case5: return "Case 5";
    }
    return "?";
}

step6_case classify_step6(const diagnostic_candidates& dc) {
    const bool others_empty = dc.dctr.empty() && dc.dcco.empty();
    if (dc.ust) {
        const evaluated_candidate& u = dc.evaluated[*dc.ust];
        if (others_empty) {
            if (u.outputs.size() == 1 && u.statout.empty() &&
                u.end_states.empty())
                return step6_case::case1;
            if (u.statout.size() == 1 && u.outputs.empty() &&
                u.end_states.empty())
                return step6_case::case2;
        }
        return step6_case::case5;
    }
    if (others_empty) return step6_case::none;

    // Count surviving candidates and their hypotheses.
    std::size_t candidates = 0, hypotheses = 0;
    auto tally = [&](std::size_t idx) {
        const evaluated_candidate& c = dc.evaluated[idx];
        ++candidates;
        hypotheses +=
            c.end_states.size() + c.outputs.size() + c.statout.size();
    };
    std::set<std::size_t> seen;
    for (std::size_t i : dc.dctr) {
        if (seen.insert(i).second) tally(i);
    }
    for (std::size_t i : dc.dcco) {
        if (seen.insert(i).second) tally(i);
    }
    if (candidates == 1 && hypotheses == 1) return step6_case::case3;
    return step6_case::case4;
}

namespace {

// --- the hypothesis loops -----------------------------------------------
// The paper's findendingstates, calouts, processtate&out and the
// addressing extension's destinations, in the paper's enumeration order
// (ascending states, pool order, ascending machines).  Each check names
// its fault-dictionary slot; `j0` is the compiled-pool index of `pool[0]`
// (an output past the compiled pool has no slot).

std::vector<state_id> flat_end_states(const compiled_spec& cs,
                                      flat_replayer& rep,
                                      global_transition_id t) {
    std::vector<state_id> out;
    const std::uint32_t d = cs.dense_id(t);
    for (std::uint32_t s = 0; s < cs.state_count[t.machine.value]; ++s) {
        if (s == cs.next_state[d]) continue;
        const transition_override ov{t, std::nullopt, state_id{s}};
        if (rep.consistent(ov, cs.transfer_slot(d, s)))
            out.push_back(state_id{s});
    }
    return out;
}

std::vector<symbol> flat_outputs(const compiled_spec& cs, flat_replayer& rep,
                                 global_transition_id t, const symbol* pool,
                                 const symbol* pool_end, std::uint32_t j0) {
    std::vector<symbol> out;
    const std::uint32_t d = cs.dense_id(t);
    for (std::uint32_t j = j0; pool != pool_end; ++pool, ++j) {
        if (pool->id == cs.out_sym[d]) continue;
        const transition_override ov{t, *pool, std::nullopt};
        if (rep.consistent(ov, cs.output_slot(d, j))) out.push_back(*pool);
    }
    return out;
}

std::vector<std::pair<state_id, symbol>> flat_statout(
    const compiled_spec& cs, flat_replayer& rep, global_transition_id t,
    const symbol* pool, const symbol* pool_end, std::uint32_t j0) {
    std::vector<std::pair<state_id, symbol>> out;
    const std::uint32_t d = cs.dense_id(t);
    for (std::uint32_t s = 0; s < cs.state_count[t.machine.value]; ++s) {
        if (s == cs.next_state[d]) continue;
        std::uint32_t j = j0;
        for (const symbol* o = pool; o != pool_end; ++o, ++j) {
            if (o->id == cs.out_sym[d]) continue;
            const transition_override ov{t, *o, state_id{s}};
            if (rep.consistent(ov, cs.output_slot(d, j, s)))
                out.emplace_back(state_id{s}, *o);
        }
    }
    return out;
}

std::vector<machine_id> flat_destinations(const compiled_spec& cs,
                                          flat_replayer& rep,
                                          global_transition_id t) {
    std::vector<machine_id> out;
    const std::uint32_t d = cs.dense_id(t);
    if (!cs.is_internal[d]) return out;
    const std::uint32_t machines =
        static_cast<std::uint32_t>(cs.machine_offset.size()) - 1;
    for (std::uint32_t j = 0; j < machines; ++j) {
        if (j == t.machine.value || j == cs.dest[d]) continue;
        transition_override ov;
        ov.target = t;
        ov.destination = machine_id{j};
        if (rep.consistent(ov)) out.push_back(machine_id{j});
    }
    return out;
}

}  // namespace

diagnostic_candidates evaluate_candidates(const compiled_spec& cs,
                                          flat_replayer& replayer,
                                          const symptom_report& report,
                                          const candidate_sets& cands) {
    diagnostic_candidates dc;
    const std::uint32_t machines =
        static_cast<std::uint32_t>(cs.machine_offset.size()) - 1;
    for (std::uint32_t m = 0; m < machines; ++m) {
        for (transition_id t : cands.itc[m]) {
            const global_transition_id gid{machine_id{m}, t};
            evaluated_candidate c;
            c.id = gid;
            c.is_ust = cands.ust && *cands.ust == gid;

            if (c.is_ust) {
                const symbol uso = report.uso.output;
                // uso's compiled-pool index; the pool size when outside it.
                const std::uint32_t d = cs.dense_id(gid);
                const symbol* pool = cs.pool_syms.data() + cs.pool_offset[d];
                const symbol* pool_end =
                    cs.pool_syms.data() + cs.pool_offset[d + 1];
                const auto j = static_cast<std::uint32_t>(
                    std::find(pool, pool_end, uso) - pool);
                if (report.flag) {
                    c.statout = flat_statout(cs, replayer, gid, &uso,
                                             &uso + 1, j);
                } else {
                    c.outputs = flat_outputs(cs, replayer, gid, &uso,
                                             &uso + 1, j);
                }
            } else {
                const bool in_ftctr = std::binary_search(
                    cands.ftc_tr[m].begin(), cands.ftc_tr[m].end(), t);
                const bool in_ftcco = std::binary_search(
                    cands.ftc_co[m].begin(), cands.ftc_co[m].end(), t);
                if (in_ftctr) {
                    c.end_states = flat_end_states(cs, replayer, gid);
                }
                if (in_ftcco) {
                    const std::uint32_t d = cs.dense_id(gid);
                    const symbol* pool =
                        cs.pool_syms.data() + cs.pool_offset[d];
                    const symbol* pool_end =
                        cs.pool_syms.data() + cs.pool_offset[d + 1];
                    if (report.flag) {
                        c.statout = flat_statout(cs, replayer, gid, pool,
                                                 pool_end, 0);
                    } else {
                        c.outputs = flat_outputs(cs, replayer, gid, pool,
                                                 pool_end, 0);
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
    const compiled_spec& cs, flat_replayer& replayer,
    const symptom_report& report, const candidate_sets& cands,
    bool include_addressing) {
    diagnostic_candidates dc;
    const std::uint32_t machines =
        static_cast<std::uint32_t>(cs.machine_offset.size()) - 1;
    for (std::uint32_t m = 0; m < machines; ++m) {
        for (transition_id t : cands.itc[m]) {
            const global_transition_id gid{machine_id{m}, t};
            const std::uint32_t d = cs.dense_id(gid);
            evaluated_candidate c;
            c.id = gid;
            c.is_ust = cands.ust && *cands.ust == gid;

            std::vector<symbol> pool(
                cs.pool_syms.begin() + cs.pool_offset[d],
                cs.pool_syms.begin() + cs.pool_offset[d + 1]);
            if (c.is_ust && !report.uso.output.is_epsilon() &&
                std::find(pool.begin(), pool.end(), report.uso.output) ==
                    pool.end() &&
                report.uso.output.id != cs.out_sym[d]) {
                pool.push_back(report.uso.output);
            }

            c.end_states = flat_end_states(cs, replayer, gid);
            c.outputs = flat_outputs(cs, replayer, gid, pool.data(),
                                     pool.data() + pool.size(), 0);
            c.statout = flat_statout(cs, replayer, gid, pool.data(),
                                     pool.data() + pool.size(), 0);
            if (include_addressing) {
                c.destinations = flat_destinations(cs, replayer, gid);
            }
            dc.evaluated.push_back(std::move(c));
        }
    }
    select_survivors(dc);
    return dc;
}

}  // namespace cfsmdiag
