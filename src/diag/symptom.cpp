#include "diag/symptom.hpp"

#include "util/budget.hpp"
#include "util/error.hpp"

namespace cfsmdiag {

symptom_report collect_symptoms(
    const system& spec, const test_suite& suite, oracle& iut,
    const std::shared_ptr<const suite_traces>& precomputed) {
    detail::require(!precomputed ||
                        precomputed->size() == suite.cases.size(),
                    "collect_symptoms: precomputed traces do not match suite");
    symptom_report report;
    report.runs.reserve(suite.size());

    for (std::size_t ci = 0; ci < suite.cases.size(); ++ci) {
        detail::budget_poll();
        const test_case& tc = suite.cases[ci];
        executed_case run;
        run.case_index = ci;
        if (precomputed) {
            run.trace = std::shared_ptr<const std::vector<trace_step>>(
                precomputed, &(*precomputed)[ci]);
        } else {
            run.trace = std::make_shared<const std::vector<trace_step>>(
                explain(spec, tc.inputs));
        }
        const std::vector<trace_step>& trace = *run.trace;
        try {
            run.observed = iut.execute(tc.inputs);
            if (const run_reliability* rel = iut.last_run_reliability();
                rel && !rel->trusted) {
                run.quarantined = true;
                run.quarantine_reason = rel->reason;
            }
        } catch (const transient_error& e) {
            // The lab never produced a usable run for this case even after
            // retries.  Quarantine it: no symptoms, no refutation power.
            run.quarantined = true;
            run.quarantine_reason = e.what();
            run.observed.assign(tc.inputs.size(), observation::none());
        }
        detail::require(run.observed.size() == tc.inputs.size(), [&] {
            return "collect_symptoms: oracle returned " +
                   std::to_string(run.observed.size()) +
                   " observations for " + std::to_string(tc.inputs.size()) +
                   " inputs";
        });
        if (run.quarantined) {
            report.quarantined_cases.push_back(ci);
            report.runs.push_back(std::move(run));
            continue;
        }

        for (std::size_t step = 0; step < trace.size(); ++step) {
            if (trace[step].expected != run.observed[step])
                run.symptom_steps.push_back(step);
        }
        if (!run.symptom_steps.empty()) {
            run.first_symptom = run.symptom_steps.front();
            const trace_step& at = trace[*run.first_symptom];
            if (!at.fired.empty()) run.symptom_transition = at.fired.back();
            report.symptomatic_cases.push_back(ci);

            // flag: any discrepancy strictly after first_symptom + 1
            // (the paper checks the tail o_{m+2..n}).
            for (std::size_t s : run.symptom_steps) {
                if (s > *run.first_symptom + 1) {
                    report.flag = true;
                    break;
                }
            }
        }
        report.runs.push_back(std::move(run));
    }

    // Unique symptom transition: all symptomatic cases name the same one.
    std::optional<global_transition_id> ust;
    bool unique = !report.symptomatic_cases.empty();
    for (std::size_t ci : report.symptomatic_cases) {
        const auto& t = report.runs[ci].symptom_transition;
        if (!t) {
            unique = false;
            break;
        }
        if (!ust) {
            ust = *t;
        } else if (*ust != *t) {
            unique = false;
            break;
        }
    }
    if (unique && ust) {
        report.ust = *ust;
        const executed_case& first =
            report.runs[report.symptomatic_cases.front()];
        report.uso = first.observed[*first.first_symptom];
    }
    return report;
}

}  // namespace cfsmdiag
