#include "diag/diagnoser.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace cfsmdiag {

std::string to_string(diagnosis_outcome outcome) {
    switch (outcome) {
        case diagnosis_outcome::passed: return "passed";
        case diagnosis_outcome::localized: return "localized";
        case diagnosis_outcome::localized_up_to_equivalence:
            return "localized up to equivalence";
        case diagnosis_outcome::ambiguous: return "ambiguous";
        case diagnosis_outcome::no_consistent_hypothesis:
            return "no consistent hypothesis";
        case diagnosis_outcome::inconclusive_unreliable:
            return "inconclusive (unreliable lab)";
        case diagnosis_outcome::inconclusive_resource:
            return "inconclusive (resource budget)";
    }
    return "?";
}

std::size_t diagnosis_result::additional_inputs() const noexcept {
    std::size_t n = 0;
    for (const auto& r : additional_tests) n += r.tc.inputs.size();
    return n;
}

namespace {

/// Applies one test to the IUT, records it, and filters the live set.
/// Returns false when the run came back untrusted (or never came back):
/// the record is kept for the report but its observations are NOT applied
/// to the tracker — quarantined evidence must not refute hypotheses.
bool apply_test(const discrim_engine& engine, oracle& iut,
                hypothesis_tracker& tracker, diagnosis_result& result,
                test_case tc, std::string purpose, bool from_fallback) {
    additional_test_record rec;
    rec.tc = std::move(tc);
    rec.purpose = std::move(purpose);
    rec.from_fallback = from_fallback;
    rec.expected = engine.replay_for(rec.tc.inputs)->expected();
    try {
        rec.observed = iut.execute(rec.tc.inputs);
        if (const run_reliability* rel = iut.last_run_reliability();
            rel && !rel->trusted) {
            rec.quarantined = true;
            rec.quarantine_reason = rel->reason;
        }
    } catch (const transient_error& e) {
        rec.quarantined = true;
        rec.quarantine_reason = e.what();
        rec.observed.assign(rec.tc.inputs.size(), observation::none());
    }
    check_answer(rec.tc.inputs, rec.observed, "diagnose");
    if (!rec.quarantined)
        rec.eliminated = tracker.apply_result(rec.tc.inputs, rec.observed);
    const bool trusted = !rec.quarantined;
    result.additional_tests.push_back(std::move(rec));
    return trusted;
}

/// Seconds elapsed since `since`, advancing `since` to now.
double lap(std::chrono::steady_clock::time_point& since) {
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::duration<double> d = now - since;
    since = now;
    return d.count();
}

void note_reason(reliability_summary& rel, const std::string& reason) {
    if (reason.empty()) return;
    if (std::find(rel.reasons.begin(), rel.reasons.end(), reason) !=
        rel.reasons.end())
        return;
    rel.reasons.push_back(reason);
}

/// Fills result.reliability from the symptom report, the Step-6 records,
/// and the oracle's lifetime totals.  Called on every return path.
void finalize_reliability(diagnosis_result& result, const oracle& iut) {
    reliability_summary& rel = result.reliability;
    rel.quarantined_cases = result.symptoms.quarantined_cases.size();
    for (std::size_t ci : result.symptoms.quarantined_cases)
        note_reason(rel, result.symptoms.runs[ci].quarantine_reason);
    rel.quarantined_tests = 0;
    for (const auto& rec : result.additional_tests) {
        if (!rec.quarantined) continue;
        ++rel.quarantined_tests;
        note_reason(rel, rec.quarantine_reason);
    }
    if (const reliability_stats* totals = iut.reliability_totals()) {
        rel.attempts = totals->attempts;
        rel.retries = totals->retries;
        rel.transient_failures = totals->transient_failures;
        rel.untrusted_runs = totals->untrusted_runs;
    }
}

/// The step quota the degradation ladder grants its cheaper rung: enough
/// governed steps for a tightly capped Step 6 to finish on any
/// realistic live set, small enough that a pathological rung still stops.
constexpr std::uint64_t rung_grace_steps = 100'000;

/// The joint-state cap the ladder tightens to when the configured search
/// starved (ladder rung 1).
constexpr std::size_t rung_joint_cap = 2'000;

diagnosis_result diagnose_impl(const spec_context& ctx, oracle& iut,
                               const diagnoser_options& options);

}  // namespace

diagnosis_result diagnose(const spec_context& ctx, oracle& iut,
                          const diagnoser_options& options) {
    // Install the caller's budget (if any) for this thread; every deep loop
    // below polls it.  Exhaustion *before* a candidate set exists has no
    // cheaper rung to fall to — the only sound verdict is a refusal.
    // External cancellation (cancelled_error) is deliberately not caught:
    // the campaign engine classifies it.
    std::optional<budget_scope> governed;
    if (options.budget) governed.emplace(options.budget);
    try {
        return diagnose_impl(ctx, iut, options);
    } catch (const resource_exhausted&) {
        diagnosis_result result;
        result.outcome = diagnosis_outcome::inconclusive_resource;
        finalize_reliability(result, iut);
        return result;
    }
}

namespace {

diagnosis_result diagnose_impl(const spec_context& ctx, oracle& iut,
                               const diagnoser_options& options) {
    const system& spec = ctx.spec();
    const test_suite& suite = ctx.suite();
    const compiled_spec& cs = ctx.compiled();

    diagnosis_result result;
    auto mark = std::chrono::steady_clock::now();

    // Steps 1-3, on the context's shared Step-1 traces.
    result.symptoms = collect_symptoms(spec, suite, iut, ctx.traces());
    result.timings.symptoms = lap(mark);
    if (!result.symptoms.has_symptoms()) {
        // Clean on every trusted run.  If runs had to be quarantined the
        // clean verdict rests on partial evidence — refuse to call it
        // "passed" (a fault could be hiding in the discarded runs).
        result.outcome = result.symptoms.quarantined_cases.empty()
                             ? diagnosis_outcome::passed
                             : diagnosis_outcome::inconclusive_unreliable;
        finalize_reliability(result, iut);
        return result;
    }

    // Step 4: fired-prefix bitmaps over the dense universe; the public
    // conflict_sets are rebuilt at the reporting boundary.
    bit_arena arena;
    const compiled_conflicts cc =
        compile_conflicts(cs, result.symptoms, arena);
    result.conflicts = materialize_conflict_sets(cs, cc);
    detail::budget_note_memory(arena.capacity_bytes());
    detail::budget_checkpoint();
    result.timings.conflicts = lap(mark);

    // Step 5A: the ITC is the AND the bitmaps already carry.
    result.candidates = materialize_candidate_sets(cs, result.symptoms, cc);
    detail::budget_checkpoint();
    result.timings.candidates = lap(mark);

    // Steps 5B-5C.  One replayer per diagnosis, amortized over every
    // hypothesis check below (including Step 6 escalation).  The context's
    // fault dictionary, when a campaign has built one, refutes most
    // hypotheses without a replay.
    flat_replayer replayer(cs, spec, result.symptoms, ctx.dictionary());
    const auto evaluate_routed = [&] {
        return evaluate_candidates(cs, replayer, result.symptoms,
                                   result.candidates);
    };
    const auto evaluate_full = [&] {
        return evaluate_candidates_escalated(
            cs, replayer, result.symptoms, result.candidates,
            options.include_addressing_faults);
    };
    if (options.evaluation == evaluation_mode::complete) {
        result.evaluated = evaluate_full();
    } else {
        result.evaluated = evaluate_routed();
    }
    result.initial_diagnoses = result.evaluated.diagnoses();
    if (result.initial_diagnoses.empty() && options.escalate_if_empty &&
        options.evaluation == evaluation_mode::paper_flag_routing) {
        result.used_escalation = true;
        result.evaluated = evaluate_full();
        result.initial_diagnoses = result.evaluated.diagnoses();
    }
    result.timings.evaluation = lap(mark);
    if (result.initial_diagnoses.empty()) {
        // With quarantined runs in play the refutation may itself rest on
        // degraded evidence — report unreliability, not a model violation.
        result.outcome = result.symptoms.quarantined_cases.empty()
                             ? diagnosis_outcome::no_consistent_hypothesis
                             : diagnosis_outcome::inconclusive_unreliable;
        finalize_reliability(result, iut);
        return result;
    }

    // Step 6: adaptive discrimination through the context's engine,
    // governed by the degradation ladder.  `joint_cap` starts as configured
    // (rung 0); a budget exhaustion mid-loop drops to rung 1 (tighter cap,
    // a fresh step-quota grace so the rung itself stays bounded), a second
    // exhaustion to rung 2 (skip discrimination entirely).  Hypotheses are
    // only ever *removed* by genuine refutation, so every rung's live set
    // still contains the truth — a stop widens the verdict, never flips it.
    const discrim_engine& engine = ctx.discrim();
    hypothesis_tracker tracker(engine, result.initial_diagnoses);
    std::size_t joint_cap = options.max_joint_states;
    bool unreliable_tests = false;
    bool resource_stopped = false;
    int rung = 0;
    run_budget rung_budget;
    std::optional<budget_scope> rung_scope;
    while (result.additional_tests.size() < options.max_additional_tests) {
      try {
        if (tracker.count() == 0 && options.escalate_if_empty &&
            options.evaluation == evaluation_mode::paper_flag_routing &&
            !result.used_escalation) {
            // Every flag-routed hypothesis was refuted: the routing dropped
            // the truth (see evaluation_mode).  Widen to the full space and
            // replay the evidence gathered so far.
            result.used_escalation = true;
            result.evaluated = evaluate_full();
            tracker = hypothesis_tracker(engine, result.evaluated.diagnoses());
            for (const auto& rec : result.additional_tests) {
                if (rec.quarantined) continue;
                (void)tracker.apply_result(rec.tc.inputs, rec.observed);
            }
        }
        if (tracker.count() <= 1) break;
        bool progressed = false;
        if (options.structured_step6) {
            // The derivation comes from the engine's campaign-wide cache
            // (identical proposals, computed once per distinct live set).
            const auto proposals =
                engine.structured_proposals(tracker.alive(), options.step6);
            for (const auto& p : *proposals) {
                if (tracker.count() <= 1) break;
                if (!tracker.splits(p.tc.inputs)) continue;
                if (!apply_test(engine, iut, tracker, result, p.tc, p.purpose,
                                /*from_fallback=*/false))
                    unreliable_tests = true;
                progressed = true;
                break;  // re-propose against the reduced live set
            }
        }
        // A quarantined additional test means the lab can no longer settle
        // discriminating questions; stop burning the test budget.
        if (unreliable_tests) break;
        if (progressed) continue;

        if (!options.fallback_search) break;
        const auto seq = tracker.find_splitting_sequence(joint_cap);
        if (!seq) break;  // remaining hypotheses are equivalent
        result.used_fallback_search = true;
        if (!apply_test(engine, iut, tracker, result,
                        test_case::from_inputs(
                            "fb" + std::to_string(
                                       result.additional_tests.size() + 1),
                            *seq),
                        "joint-state splitting sequence",
                        /*from_fallback=*/true)) {
            unreliable_tests = true;
            break;
        }
      } catch (const resource_exhausted&) {
        resource_stopped = true;
        if (++rung > 1) break;  // rung 2: report the undiscriminated set
        // Rung 1: the configured search starved.  Continue from the current
        // survivors (a superset of the fully filtered set: only genuine
        // refutation ever removed a hypothesis) on the same engine with a
        // tight cap, under a cancel-only view of the exhausted budget plus a
        // fresh step-quota grace: the parent budget would re-throw on the
        // first poll, but external cancellation must still cut through and
        // a pathological rung must still terminate.
        joint_cap = std::min(joint_cap, rung_joint_cap);
        const run_budget* exhausted = detail::current_budget();
        rung_budget = exhausted ? exhausted->cancel_only() : run_budget{};
        rung_budget.with_step_quota(rung_grace_steps);
        rung_scope.emplace(&rung_budget);
      }
    }

    result.final_diagnoses = tracker.alive();
    const bool degraded =
        !result.symptoms.quarantined_cases.empty() || unreliable_tests;
    if (tracker.count() == 0) {
        // Every hypothesis was refuted by an additional test: the fault
        // model does not hold (or the IUT is nondeterministic) — unless
        // the evidence itself was degraded, in which case the honest
        // verdict is "the lab was too unreliable".
        result.outcome = degraded
                             ? diagnosis_outcome::inconclusive_unreliable
                             : diagnosis_outcome::no_consistent_hypothesis;
    } else if (tracker.count() == 1) {
        result.outcome = diagnosis_outcome::localized;
    } else if (resource_stopped) {
        // More than one survivor and the budget ran out before they could
        // be separated or proven equivalent: the undiscriminated candidate
        // set.  The final equivalence search is skipped — it is exactly the
        // work the budget refused.
        result.outcome = diagnosis_outcome::inconclusive_resource;
    } else {
        bool equivalent = false;
        try {
            equivalent =
                !tracker.find_splitting_sequence(joint_cap).has_value();
        } catch (const resource_exhausted&) {
            resource_stopped = true;
        }
        if (resource_stopped) {
            result.outcome = diagnosis_outcome::inconclusive_resource;
        } else if (equivalent) {
            result.outcome = diagnosis_outcome::localized_up_to_equivalence;
        } else if (unreliable_tests) {
            // Distinguishable hypotheses remain and the lab stopped
            // answering discriminating tests reliably — not a budget
            // problem.
            result.outcome = diagnosis_outcome::inconclusive_unreliable;
        } else {
            result.outcome = diagnosis_outcome::ambiguous;
        }
    }
    result.timings.discrimination = lap(mark);
    finalize_reliability(result, iut);
    return result;
}

}  // namespace

diagnosis_result diagnose(const system& spec, const test_suite& suite,
                          oracle& iut, const diagnoser_options& options,
                          const suite_traces* precomputed) {
    const spec_context ctx(spec, suite, precomputed);
    return diagnose(ctx, iut, options);
}

std::string summarize(const system& spec, const diagnosis_result& result) {
    const symbol_table& sym = spec.symbols();
    std::ostringstream out;
    out << "outcome: " << to_string(result.outcome) << "\n";

    out << "symptoms: " << result.symptoms.symptomatic_cases.size()
        << " symptomatic test case(s)";
    if (result.symptoms.ust) {
        out << ", ust = " << spec.transition_label(*result.symptoms.ust)
            << ", uso = " << to_string(result.symptoms.uso, sym);
    }
    out << ", flag = " << (result.symptoms.flag ? "true" : "false") << "\n";

    if (result.reliability.degraded() || result.reliability.retries > 0 ||
        result.reliability.transient_failures > 0) {
        const reliability_summary& rel = result.reliability;
        out << "reliability: " << rel.quarantined_cases
            << " quarantined suite run(s), " << rel.quarantined_tests
            << " quarantined additional test(s), " << rel.retries
            << " retrie(s), " << rel.transient_failures
            << " transient failure(s)\n";
        for (const std::string& r : rel.reasons)
            out << "  quarantine reason: " << r << "\n";
    }

    for (std::uint32_t m = 0; m < result.candidates.itc.size(); ++m) {
        if (result.candidates.itc[m].empty()) continue;
        out << "ITC^" << (m + 1) << " = {";
        bool first = true;
        for (transition_id t : result.candidates.itc[m]) {
            if (!first) out << ", ";
            first = false;
            out << spec.machine(machine_id{m}).at(t).name;
        }
        out << "}\n";
    }

    if (result.used_escalation) out << "(escalated hypothesis search)\n";
    if (!result.initial_diagnoses.empty()) {
        out << "step 6 situation: "
            << to_string(classify_step6(result.evaluated)) << "\n";
    }
    out << "initial diagnoses (" << result.initial_diagnoses.size() << "):\n";
    for (const auto& d : result.initial_diagnoses)
        out << "  - " << describe(spec, d) << "\n";

    for (const auto& rec : result.additional_tests) {
        out << "additional test [" << rec.purpose
            << "]: " << to_string(rec.tc, sym) << "\n";
        std::vector<std::string> exp, obs;
        for (const auto& o : rec.expected) exp.push_back(to_string(o, sym));
        for (const auto& o : rec.observed) obs.push_back(to_string(o, sym));
        out << "  expected: " << join(exp, ", ") << "\n";
        out << "  observed: " << join(obs, ", ") << "  (eliminated "
            << rec.eliminated << ")\n";
        if (rec.quarantined)
            out << "  quarantined: " << rec.quarantine_reason << "\n";
    }

    out << "final diagnoses (" << result.final_diagnoses.size() << "):\n";
    for (const auto& d : result.final_diagnoses)
        out << "  - " << describe(spec, d) << "\n";
    return out.str();
}

}  // namespace cfsmdiag
