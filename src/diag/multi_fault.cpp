#include "diag/multi_fault.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "fault/enumerate.hpp"

namespace cfsmdiag {

std::vector<transition_override> fault_set::to_overrides() const {
    std::vector<transition_override> out;
    out.reserve(faults.size());
    for (const auto& f : faults) out.push_back(f.to_override());
    return out;
}

void validate_fault_set(const system& spec, const fault_set& fs,
                        std::size_t max_size) {
    detail::require(!fs.faults.empty(),
                    "fault_set: must contain at least one fault");
    detail::require(fs.faults.size() <= max_size, [&] {
        return "fault_set: more than " + std::to_string(max_size) +
               " faulty transitions";
    });
    for (std::size_t i = 0; i < fs.faults.size(); ++i) {
        validate_fault(spec, fs.faults[i]);
        for (std::size_t j = i + 1; j < fs.faults.size(); ++j) {
            detail::require(fs.faults[i].target != fs.faults[j].target,
                            "fault_set: duplicate target transition");
        }
    }
}

simulated_multi_iut::simulated_multi_iut(const system& spec,
                                         const fault_set& faults)
    : sim_(spec,
           (validate_fault_set(spec, faults, faults.faults.size()),
            faults.to_overrides())) {}

std::vector<observation> simulated_multi_iut::execute(
    const std::vector<global_input>& test) {
    ++executions_;
    inputs_applied_ += test.size();
    return sim_.run_from_reset(test);
}

namespace {

/// Every admissible single fault of one transition (output, transfer,
/// both).
std::vector<single_transition_fault> options_of(
    const system& spec, const std::vector<machine_alphabets>& alphabets,
    global_transition_id id) {
    std::vector<single_transition_fault> out;
    const fsm& m = spec.machine(id.machine);
    const transition& t = m.at(id.transition);
    const auto outputs = admissible_faulty_outputs(spec, alphabets, id);
    for (symbol o : outputs) out.push_back({id, o, std::nullopt});
    for (std::uint32_t s = 0; s < m.state_count(); ++s) {
        if (state_id{s} == t.to) continue;
        out.push_back({id, std::nullopt, state_id{s}});
        for (symbol o : outputs) out.push_back({id, o, state_id{s}});
    }
    return out;
}

}  // namespace

multi_fault_result diagnose_multi(const system& spec,
                                  const test_suite& suite, oracle& iut,
                                  const multi_fault_options& options) {
    multi_fault_result result;

    // One context per call: Step-1 traces shared between symptom
    // collection and the replay cache below.
    const spec_context ctx(spec, suite);
    const symptom_report report =
        collect_symptoms(spec, suite, iut, ctx.traces());
    if (!report.has_symptoms()) {
        result.outcome = diagnosis_outcome::passed;
        return result;
    }

    // Hypothesis generation.  With k >= 2 the conflict-intersection bound
    // no longer applies, so candidates range over all transitions; the
    // conflict union is used only to order them so that truncation (if the
    // cap bites) drops the least suspicious combinations first.
    const auto alphabets = compute_alphabets(spec);
    std::set<global_transition_id> suspicious;
    for (std::size_t ci : report.symptomatic_cases) {
        const executed_case& run = report.runs[ci];
        for (std::size_t step = 0; step <= *run.first_symptom; ++step) {
            for (auto g : (*run.trace)[step].fired) suspicious.insert(g);
        }
    }
    std::vector<global_transition_id> ordered;
    for (auto id : spec.all_transitions()) {
        if (suspicious.count(id) != 0) ordered.push_back(id);
    }
    for (auto id : spec.all_transitions()) {
        if (suspicious.count(id) == 0) ordered.push_back(id);
    }

    // The O(pairs) loop below replays every hypothesis set against the
    // suite; the cache turns most of those replays into prefix checks.
    const replay_cache cache = ctx.make_replay_cache(report);

    std::vector<fault_set> alive;
    auto consider = [&](fault_set fs) {
        if (alive.size() >= options.max_hypotheses) {
            result.truncated_hypotheses = true;
            return;
        }
        if (cache.consistent(fs.to_overrides()))
            alive.push_back(std::move(fs));
    };

    // Size-1 hypotheses first, then pairs.
    std::map<global_transition_id, std::vector<single_transition_fault>>
        per_transition;
    for (auto id : ordered)
        per_transition[id] = options_of(spec, alphabets, id);

    for (auto id : ordered) {
        for (const auto& f : per_transition[id]) consider({{f}});
    }
    if (options.max_faulty_transitions >= 2) {
        for (std::size_t i = 0; i < ordered.size(); ++i) {
            for (std::size_t j = i + 1; j < ordered.size(); ++j) {
                for (const auto& fa : per_transition[ordered[i]]) {
                    for (const auto& fb : per_transition[ordered[j]]) {
                        consider({{fa, fb}});
                    }
                }
            }
        }
    }
    result.initial_hypotheses = alive.size();
    if (alive.empty()) {
        result.outcome = diagnosis_outcome::no_consistent_hypothesis;
        return result;
    }

    // Pairwise adaptive discrimination.  Memoize equivalent pairs so each
    // hopeless joint search runs once.
    std::set<std::pair<fault_set, fault_set>> equivalent;
    auto find_split = [&]() -> std::optional<std::vector<global_input>> {
        for (std::size_t i = 0; i < alive.size(); ++i) {
            for (std::size_t j = i + 1; j < alive.size(); ++j) {
                auto key = std::make_pair(std::min(alive[i], alive[j]),
                                          std::max(alive[i], alive[j]));
                if (equivalent.count(key) != 0) continue;
                const std::vector<std::vector<transition_override>> hyps{
                    alive[i].to_overrides(), alive[j].to_overrides()};
                const auto seq = ctx.discrim().splitting_sequence(
                    hyps, options.max_joint_states);
                if (seq) return seq;
                equivalent.insert(std::move(key));
            }
        }
        return std::nullopt;
    };

    while (alive.size() > 1 &&
           result.additional_tests.size() < options.max_additional_tests) {
        const auto seq = find_split();
        if (!seq) break;  // pairwise-equivalent live set
        additional_test_record rec;
        rec.tc = test_case::from_inputs(
            "mx" + std::to_string(result.additional_tests.size() + 1),
            *seq);
        rec.purpose = "multi-fault splitting sequence";
        rec.from_fallback = true;
        rec.expected = observe(spec, rec.tc.inputs);
        rec.observed = iut.execute(rec.tc.inputs);
        std::vector<fault_set> survivors;
        for (auto& fs : alive) {
            if (observe_multi(spec, rec.tc.inputs, fs.to_overrides()) ==
                rec.observed)
                survivors.push_back(std::move(fs));
        }
        rec.eliminated = alive.size() - survivors.size();
        alive = std::move(survivors);
        result.additional_tests.push_back(std::move(rec));
    }

    result.final_hypotheses = alive;
    if (alive.empty()) {
        result.outcome = diagnosis_outcome::no_consistent_hypothesis;
    } else if (alive.size() == 1) {
        result.outcome = diagnosis_outcome::localized;
    } else if (!find_split()) {
        result.outcome = diagnosis_outcome::localized_up_to_equivalence;
    } else {
        result.outcome = diagnosis_outcome::ambiguous;
    }
    return result;
}

std::string describe(const system& spec, const fault_set& fs) {
    std::string out = "{";
    for (std::size_t i = 0; i < fs.faults.size(); ++i) {
        if (i) out += "; ";
        out += describe(spec, fs.faults[i]);
    }
    out += "}";
    return out;
}

}  // namespace cfsmdiag
