// The test-only checks of the diagnosis pipeline against the reference
// pipeline of ref_oracle.hpp, computed the plain way, with nothing shared
// and nothing cached —
//   Steps 4-5A   generate_conflict_sets / generate_candidates (std::set
//                algebra),
//   Steps 5B-5C  evaluate_candidates(_escalated)(spec, ...) with no
//                replay_cache, so every hypothesis re-runs the whole suite
//                from reset (the paper's findendingstates / calouts /
//                processtate&out),
//   Step 6       propose_structured_tests with the reference transfer
//                search below, the reference joint search
//                splitting_sequence(spec, ...), and filtering by observe()
//                on each hypothesis,
// and the searches over the spec's own global states as std::map BFSes on
// the reference simulator: reference_tour (transition_tour's oracle) and
// reference_transfer (global_transfer_to_machine_state's).
// diagnose() runs none of this: it takes the compiled core for Steps 4-5C
// and the context's discrimination engine (memo, flat replays, proposal and
// transfer caches) for Step 6, and the tour and transfers run on
// packed_bfs.  The checks below hold the production result to the oracle
// field for field.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "cfsmdiag.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag::ref_oracle {

/// Every port-appliable global input, machines in index order, each input
/// alphabet in sorted-id order: enumerated here, not by all_port_inputs,
/// so that the searches below share nothing with the code they check.
inline std::vector<global_input> port_inputs(const system& spec) {
    std::vector<global_input> inputs;
    for (std::uint32_t mi = 0; mi < spec.machine_count(); ++mi) {
        for (symbol s : spec.machine(machine_id{mi}).input_alphabet())
            inputs.push_back(global_input::at(machine_id{mi}, s));
    }
    return inputs;
}

/// transition_tour's oracle: the greedy tour with each extension found by
/// a std::map BFS over system_states, stepping the reference simulator.
inline tour_result reference_tour(const system& spec,
                                  std::size_t max_search_states = 200'000) {
    const auto inputs = port_inputs(spec);
    std::set<global_transition_id> uncovered;
    for (auto id : spec.all_transitions()) uncovered.insert(id);

    simulator sim(spec);
    sim.reset();
    std::vector<global_input> tour{global_input::reset()};

    // BFS from the current global state for the shortest extension whose
    // final step fires at least one uncovered transition.
    auto find_extension =
        [&](const system_state& start)
        -> std::optional<std::vector<global_input>> {
        struct node {
            system_state state;
            std::uint32_t parent;
            global_input via;
        };
        std::vector<node> nodes{{start, invalid_index,
                                 global_input::reset()}};
        std::map<system_state, bool> visited{{start, true}};
        std::deque<std::uint32_t> frontier{0};
        while (!frontier.empty()) {
            const std::uint32_t idx = frontier.front();
            frontier.pop_front();
            for (const auto& in : inputs) {
                sim.set_state(nodes[idx].state);
                std::vector<global_transition_id> fired;
                (void)sim.apply(in, &fired);
                const bool hits = std::any_of(
                    fired.begin(), fired.end(), [&](global_transition_id g) {
                        return uncovered.count(g) != 0;
                    });
                if (hits) {
                    std::vector<global_input> seq{in};
                    std::uint32_t cur = idx;
                    while (nodes[cur].parent != invalid_index) {
                        seq.push_back(nodes[cur].via);
                        cur = nodes[cur].parent;
                    }
                    std::reverse(seq.begin(), seq.end());
                    return seq;
                }
                if (fired.empty()) continue;  // ε step: no progress
                if (visited.size() >= max_search_states) continue;
                if (visited.emplace(sim.state(), true).second) {
                    nodes.push_back({sim.state(), idx, in});
                    frontier.push_back(
                        static_cast<std::uint32_t>(nodes.size() - 1));
                }
            }
        }
        return std::nullopt;
    };

    sim.reset();
    system_state cursor = sim.state();
    while (!uncovered.empty()) {
        auto ext = find_extension(cursor);
        if (!ext) break;  // nothing more reachable from here or anywhere
        for (const auto& in : *ext) {
            sim.set_state(cursor);
            std::vector<global_transition_id> fired;
            (void)sim.apply(in, &fired);
            cursor = sim.state();
            tour.push_back(in);
            for (auto g : fired) uncovered.erase(g);
        }
    }

    tour_result result;
    result.suite.add(
        test_case::from_inputs("tour", std::move(tour), false));
    result.uncovered.assign(uncovered.begin(), uncovered.end());
    return result;
}

/// The transfer search's oracle: a std::map BFS over system_states,
/// stepping the reference simulator.
inline std::optional<std::vector<global_input>> reference_transfer(
    const system& spec, const system_state& start,
    const std::function<bool(const system_state&)>& goal,
    const global_search_options& options = {}) {
    if (goal(start)) return std::vector<global_input>{};

    std::set<global_transition_id> banned(options.avoid.begin(),
                                          options.avoid.end());
    const auto inputs = port_inputs(spec);

    struct node {
        system_state state;
        std::uint32_t parent;
        global_input via;
    };
    std::vector<node> nodes{{start, invalid_index, global_input::reset()}};
    std::map<system_state, bool> visited{{start, true}};
    std::deque<std::uint32_t> frontier{0};
    simulator sim(spec);

    while (!frontier.empty()) {
        const std::uint32_t idx = frontier.front();
        frontier.pop_front();
        for (const auto& in : inputs) {
            sim.set_state(nodes[idx].state);
            std::vector<global_transition_id> fired;
            (void)sim.apply(in, &fired);
            if (options.skip_null_steps && fired.empty()) continue;
            const bool uses_banned = std::any_of(
                fired.begin(), fired.end(),
                [&](global_transition_id g) { return banned.count(g) != 0; });
            if (uses_banned) continue;
            if (!visited.emplace(sim.state(), true).second) continue;
            nodes.push_back({sim.state(), idx, in});
            const std::uint32_t fresh =
                static_cast<std::uint32_t>(nodes.size() - 1);
            if (goal(sim.state())) {
                std::vector<global_input> seq;
                std::uint32_t cur = fresh;
                while (nodes[cur].parent != invalid_index) {
                    seq.push_back(nodes[cur].via);
                    cur = nodes[cur].parent;
                }
                std::reverse(seq.begin(), seq.end());
                return seq;
            }
            if (visited.size() >= options.max_states) return std::nullopt;
            frontier.push_back(fresh);
        }
    }
    return std::nullopt;
}

/// reference_transfer from reset to machine `m` in state `s`: the transfer
/// search the oracle's Step 6 hands propose_structured_tests.
inline std::optional<std::vector<global_input>>
reference_transfer_to_machine_state(const system& spec, machine_id m,
                                    state_id s,
                                    const global_search_options& options = {}) {
    return reference_transfer(
        spec, initial_global_state(spec),
        [m, s](const system_state& st) { return st.states[m.value] == s; },
        options);
}

/// Field-wise equality of two Step 5B/5C results.
inline void expect_same_evaluation(const diagnostic_candidates& got,
                                   const diagnostic_candidates& want) {
    ASSERT_EQ(got.evaluated.size(), want.evaluated.size());
    for (std::size_t i = 0; i < got.evaluated.size(); ++i) {
        const evaluated_candidate& a = got.evaluated[i];
        const evaluated_candidate& b = want.evaluated[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.end_states, b.end_states);
        EXPECT_EQ(a.outputs, b.outputs);
        EXPECT_EQ(a.statout, b.statout);
        EXPECT_EQ(a.destinations, b.destinations);
        EXPECT_EQ(a.is_ust, b.is_ust);
    }
    EXPECT_EQ(got.dctr, want.dctr);
    EXPECT_EQ(got.dcco, want.dcco);
    EXPECT_EQ(got.ust, want.ust);
}

inline std::vector<std::vector<transition_override>> overrides_of(
    const std::vector<diagnosis>& alive) {
    std::vector<std::vector<transition_override>> hyps;
    for (const diagnosis& d : alive) hyps.push_back({d.to_override()});
    return hyps;
}

/// True when two live hypotheses predict different observations.
inline bool splits(const system& spec, const std::vector<diagnosis>& alive,
                   const std::vector<global_input>& inputs) {
    if (alive.size() < 2) return false;
    const auto first = observe(spec, inputs, alive[0].to_override());
    for (std::size_t i = 1; i < alive.size(); ++i) {
        if (observe(spec, inputs, alive[i].to_override()) != first)
            return true;
    }
    return false;
}

/// The hypotheses of `alive` whose prediction matches the IUT's answer.
inline std::vector<diagnosis> filter(const system& spec,
                                     const std::vector<diagnosis>& alive,
                                     const additional_test_record& rec) {
    std::vector<diagnosis> kept;
    for (const diagnosis& d : alive) {
        if (observe(spec, rec.tc.inputs, d.to_override()) == rec.observed)
            kept.push_back(d);
    }
    return kept;
}

/// Sorted and deduplicated, as the tracker holds its live set.
inline std::vector<diagnosis> live_set(std::vector<diagnosis> ds) {
    std::sort(ds.begin(), ds.end());
    ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
    return ds;
}

/// Checks an unbudgeted diagnose() result against the oracle: Steps 4-5C
/// recomputed uncached on `r.symptoms`, and Step 6 replayed test by test —
/// each structured test must be the first oracle proposal that splits the
/// live set, each fallback test the reference search's sequence, and
/// observe()-based filtering must reproduce every `eliminated` count and
/// the final diagnoses.
inline void expect_diagnosis_matches(
    const system& spec, const test_suite& suite, const diagnosis_result& r,
    const diagnoser_options& o = {}) {
    if (!r.symptoms.has_symptoms()) {
        EXPECT_EQ(r.outcome, diagnosis_outcome::passed);
        EXPECT_TRUE(r.initial_diagnoses.empty());
        return;
    }

    // Steps 4-5A.
    const conflict_sets conflicts = generate_conflict_sets(spec, r.symptoms);
    EXPECT_EQ(r.conflicts.per_machine, conflicts.per_machine);
    const candidate_sets cands =
        generate_candidates(spec, r.symptoms, conflicts);
    EXPECT_EQ(r.candidates.itc, cands.itc);
    EXPECT_EQ(r.candidates.ftc_tr, cands.ftc_tr);
    EXPECT_EQ(r.candidates.ftc_co, cands.ftc_co);
    EXPECT_EQ(r.candidates.ust, cands.ust);

    // Steps 5B-5C, uncached.
    std::optional<diagnostic_candidates> escalated;
    const auto full = [&]() -> const diagnostic_candidates& {
        if (!escalated) {
            escalated = evaluate_candidates_escalated(
                spec, suite, r.symptoms, cands, o.include_addressing_faults);
        }
        return *escalated;
    };
    const bool routed_mode =
        o.evaluation == evaluation_mode::paper_flag_routing;
    std::vector<diagnosis> initial;
    bool escalated_before_step6 = false;
    if (routed_mode) {
        const diagnostic_candidates routed =
            evaluate_candidates(spec, suite, r.symptoms, cands);
        initial = routed.diagnoses();
        if (initial.empty() && o.escalate_if_empty) {
            escalated_before_step6 = true;
            initial = full().diagnoses();
        }
        if (!r.used_escalation) expect_same_evaluation(r.evaluated, routed);
    } else {
        initial = full().diagnoses();
    }
    if (!routed_mode || r.used_escalation)
        expect_same_evaluation(r.evaluated, full());
    EXPECT_EQ(r.initial_diagnoses, initial);
    if (initial.empty()) {
        EXPECT_TRUE(r.final_diagnoses.empty());
        EXPECT_TRUE(r.additional_tests.empty());
        return;
    }

    // Step 6, replayed.  With the paper's routing, a live set refuted to
    // nothing widens once to the full space, re-filtered by every test so
    // far (the diagnoser's mid-loop escalation).
    std::vector<diagnosis> alive = live_set(initial);
    bool escalated_in_step6 = false;
    const auto maybe_escalate = [&](std::size_t tests_so_far) {
        if (!alive.empty() || !routed_mode || !o.escalate_if_empty ||
            escalated_before_step6 || escalated_in_step6)
            return;
        escalated_in_step6 = true;
        alive = live_set(full().diagnoses());
        for (std::size_t k = 0; k < tests_so_far; ++k) {
            if (!r.additional_tests[k].quarantined)
                alive = filter(spec, alive, r.additional_tests[k]);
        }
    };
    bool used_fallback = false;
    for (std::size_t k = 0; k < r.additional_tests.size(); ++k) {
        const additional_test_record& rec = r.additional_tests[k];
        SCOPED_TRACE("additional test #" + std::to_string(k + 1));
        maybe_escalate(k);
        EXPECT_EQ(rec.expected, observe(spec, rec.tc.inputs));
        const proposed_test* pick = nullptr;
        std::vector<proposed_test> proposals;
        if (o.structured_step6) {
            proposals = propose_structured_tests(
                spec, alive, o.step6,
                [&spec](machine_id m, state_id s,
                        const global_search_options& search) {
                    return reference_transfer_to_machine_state(spec, m, s,
                                                               search);
                });
            for (const proposed_test& p : proposals) {
                if (splits(spec, alive, p.tc.inputs)) {
                    pick = &p;
                    break;
                }
            }
        }
        if (rec.from_fallback) {
            used_fallback = true;
            EXPECT_EQ(pick, nullptr) << "a structured test would split";
            const auto seq = splitting_sequence(spec, overrides_of(alive),
                                                o.max_joint_states);
            ASSERT_TRUE(seq.has_value());
            EXPECT_EQ(rec.tc.inputs,
                      test_case::from_inputs("", *seq).inputs);
        } else {
            ASSERT_NE(pick, nullptr) << "no structured test splits";
            EXPECT_EQ(rec.tc.inputs, pick->tc.inputs);
            EXPECT_EQ(rec.purpose, pick->purpose);
        }
        if (rec.quarantined) continue;
        const std::size_t before = alive.size();
        alive = filter(spec, alive, rec);
        EXPECT_EQ(rec.eliminated, before - alive.size());
    }
    maybe_escalate(r.additional_tests.size());
    EXPECT_EQ(r.final_diagnoses, alive);
    EXPECT_EQ(r.used_fallback_search, used_fallback);
    EXPECT_EQ(r.used_escalation, escalated_before_step6 || escalated_in_step6);
    if (r.outcome == diagnosis_outcome::localized_up_to_equivalence) {
        EXPECT_FALSE(splitting_sequence(spec, overrides_of(alive),
                                        o.max_joint_states)
                         .has_value());
    } else if (r.outcome == diagnosis_outcome::ambiguous) {
        EXPECT_TRUE(splitting_sequence(spec, overrides_of(alive),
                                       o.max_joint_states)
                        .has_value());
    }
}

/// The campaign's `sound` bit by the reference pairwise search: the truth
/// is among `finals` verbatim or up to observational equivalence.
inline bool truth_among(const system& spec,
                        const single_transition_fault& truth,
                        const std::vector<diagnosis>& finals) {
    return std::any_of(finals.begin(), finals.end(), [&](const diagnosis& d) {
        return d == truth || observationally_equivalent(spec, truth, d);
    });
}

/// Checks unbudgeted campaign entries (complete evaluation, clean lab)
/// against the oracle, every field of every entry.  Each fault is diagnosed
/// once more on its own, through diagnose(spec, suite, iut) on a fresh
/// context, and that result is held to the oracle by
/// expect_diagnosis_matches; the entry must then score it exactly: outcome
/// and counts from the result, `sound` by the reference equivalence search,
/// the oracle's executions and inputs from the suite plus the additional
/// tests, and the hypothesis replays of the uncached Step 5B (complete
/// evaluation spends replays there only).
inline void expect_entries_match(
    const system& spec, const test_suite& suite,
    const std::vector<single_transition_fault>& faults,
    const std::vector<campaign_entry>& entries,
    const diagnoser_options& o = {}) {
    ASSERT_EQ(o.evaluation, evaluation_mode::complete);
    ASSERT_EQ(entries.size(), faults.size());
    std::size_t suite_inputs = 0;
    for (const test_case& tc : suite.cases) suite_inputs += tc.inputs.size();
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const single_transition_fault& fault = faults[i];
        SCOPED_TRACE("fault #" + std::to_string(i) + ": " +
                     describe(spec, fault));
        simulated_iut iut(spec, fault);
        const diagnosis_result r = diagnose(spec, suite, iut, o);
        expect_diagnosis_matches(spec, suite, r, o);

        campaign_entry want;
        want.fault = fault;
        want.outcome = r.outcome;
        want.detected = r.symptoms.has_symptoms();
        want.sound =
            want.detected && truth_among(spec, fault, r.final_diagnoses);
        want.initial_diagnoses = r.initial_diagnoses.size();
        want.final_diagnoses = r.final_diagnoses.size();
        want.additional_tests = r.additional_tests.size();
        want.additional_inputs = r.additional_inputs();
        want.oracle_executions = suite.size() + r.additional_tests.size();
        want.oracle_inputs = suite_inputs + r.additional_inputs();
        want.escalated = r.used_escalation;
        want.used_fallback = r.used_fallback_search;
        EXPECT_EQ(iut.executions(), want.oracle_executions);
        EXPECT_EQ(iut.inputs_applied(), want.oracle_inputs);
        if (want.detected) {
            const conflict_sets conflicts =
                generate_conflict_sets(spec, r.symptoms);
            const candidate_sets cands =
                generate_candidates(spec, r.symptoms, conflicts);
            const std::size_t before = hypothesis_replays();
            (void)evaluate_candidates_escalated(spec, suite, r.symptoms,
                                                cands,
                                                o.include_addressing_faults);
            want.replays = hypothesis_replays() - before;
        }

        const campaign_entry& e = entries[i];
        EXPECT_EQ(e.fault, want.fault);
        EXPECT_EQ(e.outcome, want.outcome);
        EXPECT_EQ(e.detected, want.detected);
        EXPECT_EQ(e.sound, want.sound);
        EXPECT_EQ(e.initial_diagnoses, want.initial_diagnoses);
        EXPECT_EQ(e.final_diagnoses, want.final_diagnoses);
        EXPECT_EQ(e.additional_tests, want.additional_tests);
        EXPECT_EQ(e.additional_inputs, want.additional_inputs);
        EXPECT_EQ(e.replays, want.replays);
        EXPECT_EQ(e.oracle_executions, want.oracle_executions);
        EXPECT_EQ(e.oracle_inputs, want.oracle_inputs);
        EXPECT_EQ(e.escalated, want.escalated);
        EXPECT_EQ(e.used_fallback, want.used_fallback);
        // The clean lab's reliability counters and error fields stay at
        // their defaults; this catches any field not listed above.
        EXPECT_TRUE(e == want) << "an entry field outside the list differs";
    }
}

}  // namespace cfsmdiag::ref_oracle
