#include "diag/additional_tests.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "fsm/separate.hpp"

namespace cfsmdiag {
namespace {

/// Hypotheses grouped by suspect transition, with the value sets the probes
/// must distinguish.
struct suspect_group {
    global_transition_id id;
    std::vector<state_id> states;    ///< possible end states incl. correct
    std::vector<symbol> outputs;     ///< possible outputs incl. correct
    bool output_dim = false;         ///< some hypothesis has an output fault
    bool transfer_dim = false;       ///< some hypothesis has a transfer fault
    int priority = 2;
};

std::vector<suspect_group> group_hypotheses(const system& spec,
                                            const std::vector<diagnosis>&
                                                alive) {
    std::map<global_transition_id, suspect_group> groups;
    for (const diagnosis& d : alive) {
        auto [it, fresh] = groups.try_emplace(d.target);
        suspect_group& g = it->second;
        if (fresh) {
            g.id = d.target;
            const transition& t = spec.transition_at(d.target);
            g.states.push_back(t.to);       // the correct end state
            g.outputs.push_back(t.output);  // the correct output
        }
        if (d.faulty_next) {
            g.transfer_dim = true;
            g.states.push_back(*d.faulty_next);
        }
        if (d.faulty_output) {
            g.output_dim = true;
            g.outputs.push_back(*d.faulty_output);
        }
    }

    std::vector<suspect_group> out;
    out.reserve(groups.size());
    for (auto& [id, g] : groups) {
        std::sort(g.states.begin(), g.states.end());
        g.states.erase(std::unique(g.states.begin(), g.states.end()),
                       g.states.end());
        std::sort(g.outputs.begin(), g.outputs.end());
        g.outputs.erase(std::unique(g.outputs.begin(), g.outputs.end()),
                        g.outputs.end());
        const bool external =
            spec.transition_at(id).kind == output_kind::external;
        // Paper order: output checks of external suspects (the ust) first,
        // then pure transfer suspects, then internal-output suspects.
        if (external && g.output_dim) {
            g.priority = 0;
        } else if (g.transfer_dim && !g.output_dim) {
            g.priority = 1;
        } else {
            g.priority = 2;
        }
        out.push_back(std::move(g));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const suspect_group& a, const suspect_group& b) {
                         if (a.priority != b.priority)
                             return a.priority < b.priority;
                         return a.id < b.id;
                     });
    return out;
}

}  // namespace

std::vector<proposed_test> propose_structured_tests(
    const system& spec, const hypothesis_tracker& tracker,
    const step6_options& options, const transfer_search& find_transfer) {
    std::vector<proposed_test> proposals;
    if (tracker.count() < 2) return proposals;

    const auto groups = group_hypotheses(spec, tracker.alive());

    // The ambiguity rule: transfer sequences must not fire any transition
    // still under suspicion.
    global_search_options search = options.search;
    {
        std::set<global_transition_id> avoid(search.avoid.begin(),
                                             search.avoid.end());
        for (const diagnosis& d : tracker.alive()) avoid.insert(d.target);
        search.avoid.assign(avoid.begin(), avoid.end());
    }

    const system_state init = initial_global_state(spec);
    std::set<std::vector<global_input>> seen_tests;

    auto add = [&](std::vector<global_input> body,
                   global_transition_id suspect, std::string purpose) {
        if (proposals.size() >= options.max_proposals) return;
        test_case tc = test_case::from_inputs(
            "diag" + std::to_string(proposals.size() + 1), std::move(body));
        if (!seen_tests.insert(tc.inputs).second) return;
        proposals.push_back({std::move(tc), suspect, std::move(purpose)});
    };

    for (const suspect_group& g : groups) {
        const transition& t = spec.transition_at(g.id);
        const machine_id m = g.id.machine;

        const auto transfer =
            find_transfer ? find_transfer(m, t.from, search)
                          : global_transfer_to_machine_state(spec, init, m,
                                                             t.from, search);
        if (!transfer) continue;  // unreachable under the ambiguity rule

        std::vector<global_input> base = *transfer;
        base.push_back(global_input::at(m, t.input));
        const std::string label = spec.transition_label(g.id);

        if (g.output_dim && t.kind == output_kind::external) {
            // The output shows at the suspect's own port immediately.
            add(base, g.id, "output check of " + label);
        }

        if (g.output_dim && t.kind == output_kind::internal &&
            g.outputs.size() > 1) {
            // Distinguish the receiver's reactions to the possible message
            // types: the first reaction may already differ; otherwise probe
            // the receiver's resulting states with U_k.
            add(base, g.id, "output check of " + label + " (reaction)");

            // Receiver state at the moment of reception = its state after
            // the (candidate-free) transfer prefix.
            simulator sim(spec);
            sim.reset();
            for (const auto& in : *transfer) (void)sim.apply(in);
            const machine_id j = t.destination;
            const fsm& receiver = spec.machine(j);
            const state_id sj = sim.state().states[j.value];

            std::vector<state_id> reached;
            for (symbol o : g.outputs) {
                const auto hit = receiver.find(sj, o);
                reached.push_back(hit ? receiver.at(*hit).to : sj);
            }
            std::sort(reached.begin(), reached.end());
            reached.erase(std::unique(reached.begin(), reached.end()),
                          reached.end());
            if (reached.size() > 1) {
                const local_view view(receiver);
                const auto u = limited_characterization_set(view, reached);
                for (const auto& seq : u.sequences) {
                    auto body = base;
                    for (symbol s : seq)
                        body.push_back(global_input::at(j, s));
                    add(std::move(body), g.id,
                        "output check of " + label + " (U probe at " +
                            receiver.name() + ")");
                }
            }
        }

        if (g.transfer_dim && g.states.size() > 1) {
            // W_k over EndStates ∪ {correct}.
            const local_view view(spec.machine(m));
            const auto w = limited_characterization_set(view, g.states);
            for (const auto& seq : w.sequences) {
                auto body = base;
                for (symbol s : seq) body.push_back(global_input::at(m, s));
                add(std::move(body), g.id,
                    "transfer check of " + label + " (W probe)");
            }
        }
    }
    return proposals;
}

}  // namespace cfsmdiag
