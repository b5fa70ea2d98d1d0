// Regenerates the paper's Section 4 walkthrough and Figure 2 (progressive
// construction of additional diagnostic tests).
//
// Prints every intermediate artifact of the diagnostic algorithm on the
// Figure-1 example with the t''4 transfer fault, annotated with the paper's
// stated values, then shows the progressive additional-test construction:
// each test's purpose, its avoid-set rationale, and the verdict, stopping
// as soon as the fault is localized (the single-fault hypothesis).
#include <iostream>

#include "cfsmdiag.hpp"

int main() {
    using namespace cfsmdiag;
    const auto ex = paperex::make_paper_example();
    const symbol_table& sym = ex.spec.symbols();

    simulated_iut iut(ex.spec, ex.fault);
    diagnoser_options opts;
    opts.evaluation = evaluation_mode::paper_flag_routing;
    const auto result = diagnose(ex.spec, ex.suite, iut, opts);

    std::cout << "=== Step 3: symptoms ===\n";
    std::cout << "paper:      Symp1 = (o_{1,6}^1 != ô_{1,6}^1), symptom "
                 "transition t7\n";
    const auto& run = result.symptoms.runs[0];
    std::cout << "reproduced: first symptom in tc1 at position "
              << (*run.first_symptom + 1) << ", symptom transition "
              << ex.spec.transition_label(*run.symptom_transition)
              << ", uso = " << to_string(result.symptoms.uso, sym)
              << ", flag = " << (result.symptoms.flag ? "true" : "false")
              << "\n\n";

    std::cout << "=== Step 4: conflict sets ===\n";
    std::cout << "paper:      Conf1 = {t1,t6,t7}  Conf2 = {t'1,t'6}  "
                 "Conf3 = {t''1,t''4,t''5}\n";
    std::cout << "reproduced:";
    for (std::uint32_t m = 0; m < 3; ++m) {
        std::vector<std::string> names;
        for (auto t : result.conflicts.per_machine[m][0])
            names.push_back(ex.spec.machine(machine_id{m}).at(t).name);
        std::cout << " Conf" << (m + 1) << " = {" << join(names, ",")
                  << "} ";
    }
    std::cout << "\n\n";

    std::cout << "=== Step 5: candidates and hypothesis sets ===\n";
    std::cout << "paper:      ustset1={t7} outputs[t7]={c'}; "
                 "EndStates[t''4]={s0}; outputs[t''5]={a}; all others "
                 "empty\n";
    std::cout << "reproduced:\n";
    text_table t5({"candidate", "EndStates", "outputs", "statout", "role"});
    const auto braced = [](const std::vector<std::string>& items) {
        std::string out = "{";
        out += join(items, ",");
        out += '}';
        return out;
    };
    for (const auto& c : result.evaluated.evaluated) {
        const fsm& m = ex.spec.machine(c.id.machine);
        std::vector<std::string> es, os, so;
        for (auto s : c.end_states) es.push_back(m.state_name(s));
        for (auto o : c.outputs) os.push_back(sym.name(o));
        for (auto& [s, o] : c.statout)
            so.push_back("(" + m.state_name(s) + "," + sym.name(o) + ")");
        t5.add_row({ex.spec.transition_label(c.id), braced(es), braced(os),
                    braced(so), c.is_ust ? "ust" : ""});
    }
    std::cout << t5 << "\n";

    std::cout << "=== Step 5C: diagnoses ===\n";
    std::cout << "paper:      Diag1: t7 output c' instead of d'.  Diag2: "
                 "t''4 transfers to s0 instead of s1.  Diag3: t''5 output "
                 "a instead of b.\n";
    std::cout << "reproduced:\n";
    for (const auto& d : result.initial_diagnoses)
        std::cout << "  - " << describe(ex.spec, d) << "\n";

    std::cout << "\n=== Step 6 / Figure 2: progressive additional tests "
                 "===\n";
    std::cout << "paper:      test 'R, c1, b1' clears t7; test 'R, c'3, "
                 "v3, v3' confirms t''4 -> s0; search stops (single-fault "
                 "hypothesis), Diag3 discarded.\n";
    std::cout << "reproduced:\n";
    for (const auto& rec : result.additional_tests) {
        std::cout << "  [" << rec.purpose << "] "
                  << to_string(rec.tc, sym) << "\n";
        std::vector<std::string> exp, obs;
        for (auto& o : rec.expected) exp.push_back(to_string(o, sym));
        for (auto& o : rec.observed) obs.push_back(to_string(o, sym));
        std::cout << "      expected (spec): " << join(exp, ", ")
                  << "\n      observed (IUT):  " << join(obs, ", ")
                  << "   -> eliminated " << rec.eliminated
                  << " hypothesis(es)\n";
    }
    std::cout << "\n(the paper's second test probes s0-vs-s1 with v3; our "
                 "W-search picks the equally separating c'3 — the paper "
                 "itself calls its choice 'a possible sequence')\n";

    std::cout << "\n=== verdict ===\n";
    std::cout << "outcome: " << to_string(result.outcome) << "\n";
    for (const auto& d : result.final_diagnoses)
        std::cout << "localized fault: " << describe(ex.spec, d) << "\n";
    std::cout << "injected fault:  " << describe(ex.spec, ex.fault) << "\n";
    std::cout << "additional test effort: "
              << result.additional_tests.size() << " tests, "
              << result.additional_inputs() << " inputs\n";
    return 0;
}
