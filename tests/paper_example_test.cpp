// Machine-checks the Figure-1 reconstruction against every intermediate
// result the paper states in Table 1 and the Section 4 walkthrough.
#include <gtest/gtest.h>

#include "cfsmdiag.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag::paperex {
namespace {

class paper_example_test : public ::testing::Test {
  protected:
    paper_example ex = make_paper_example();
    machine_id m1{0}, m2{1}, m3{2};

    [[nodiscard]] std::string expected_row(const test_case& tc) const {
        std::vector<std::string> cells;
        for (const auto& obs : expected_outputs(ex.spec, tc))
            cells.push_back(to_string(obs, ex.spec.symbols()));
        return join(cells, ", ");
    }

    [[nodiscard]] std::string observed_row(const test_case& tc) const {
        simulated_iut iut(ex.spec, ex.fault);
        std::vector<std::string> cells;
        for (const auto& obs : iut.execute(tc.inputs))
            cells.push_back(to_string(obs, ex.spec.symbols()));
        return join(cells, ", ");
    }

    [[nodiscard]] std::string fired_row(const test_case& tc) const {
        std::vector<std::string> cells;
        for (const auto& step : explain(ex.spec, tc.inputs))
            cells.push_back(fired_label(ex.spec, step));
        return join(cells, ", ");
    }
};

TEST_F(paper_example_test, system_is_structurally_valid) {
    EXPECT_NO_THROW(validate_structure(ex.spec));
    EXPECT_EQ(ex.spec.machine_count(), 3u);
}

TEST_F(paper_example_test, section2_alphabet_partitions) {
    const auto a = compute_alphabets(ex.spec);
    const auto& sym = ex.spec.symbols();
    auto names = [&](const std::vector<symbol>& v) {
        std::vector<std::string> out;
        for (symbol s : v) out.push_back(sym.name(s));
        std::sort(out.begin(), out.end());
        return out;
    };
    using V = std::vector<std::string>;

    // Section 2.1: IEO1 = {a,b}; IIO1>2 = {c,d}; IIO1>3 = {e,f};
    // OEO1 = {c',d'}; OIO1>2 = {c',d'}; OIO1>3 = {c',d'}.
    EXPECT_EQ(names(a[0].ieo), (V{"a", "b"}));
    EXPECT_EQ(names(a[0].iio_to[1]), (V{"c", "d"}));
    EXPECT_EQ(names(a[0].iio_to[2]), (V{"e", "f"}));
    EXPECT_EQ(names(a[0].oeo), (V{"c'", "d'"}));
    EXPECT_EQ(names(a[0].oio_to[1]), (V{"c'", "d'"}));
    EXPECT_EQ(names(a[0].oio_to[2]), (V{"c'", "d'"}));

    // IEO2 = {c',d',o,p}; IIO2>1 = {q,r}; IIO2>3 = {s,t}; OEO2 = {a,b};
    // OIO2>1 = {a,b}; OIO2>3 = {u,v}.
    EXPECT_EQ(names(a[1].ieo), (V{"c'", "d'", "o", "p"}));
    EXPECT_EQ(names(a[1].iio_to[0]), (V{"q", "r"}));
    EXPECT_EQ(names(a[1].iio_to[2]), (V{"s", "t"}));
    EXPECT_EQ(names(a[1].oeo), (V{"a", "b"}));
    EXPECT_EQ(names(a[1].oio_to[0]), (V{"a", "b"}));
    EXPECT_EQ(names(a[1].oio_to[2]), (V{"u", "v"}));

    // IEO3 = {c',d',u,v}; IIO3>1 = {w,x}; IIO3>2 = {y,z}; OEO3 = {a,b};
    // OIO3>1 = {a,b}; OIO3>2 = {o,p}.
    EXPECT_EQ(names(a[2].ieo), (V{"c'", "d'", "u", "v"}));
    EXPECT_EQ(names(a[2].iio_to[0]), (V{"w", "x"}));
    EXPECT_EQ(names(a[2].iio_to[1]), (V{"y", "z"}));
    EXPECT_EQ(names(a[2].oeo), (V{"a", "b"}));
    EXPECT_EQ(names(a[2].oio_to[0]), (V{"a", "b"}));
    EXPECT_EQ(names(a[2].oio_to[1]), (V{"o", "p"}));

    // IEOq subsets: IEOq1<2 = IEOq1<3 = {a,b}; IEOq2<1 = {c',d'};
    // IEOq3<1 = {c',d'}; IEOq3<2 = {u,v}; IEOq2<3 = {o,p}.
    EXPECT_EQ(names(a[0].ieoq_from[1]), (V{"a", "b"}));
    EXPECT_EQ(names(a[0].ieoq_from[2]), (V{"a", "b"}));
    EXPECT_EQ(names(a[1].ieoq_from[0]), (V{"c'", "d'"}));
    EXPECT_EQ(names(a[1].ieoq_from[2]), (V{"o", "p"}));
    EXPECT_EQ(names(a[2].ieoq_from[0]), (V{"c'", "d'"}));
    EXPECT_EQ(names(a[2].ieoq_from[1]), (V{"u", "v"}));
}

TEST_F(paper_example_test, table1_tc1_rows) {
    const test_case& tc1 = ex.suite.cases[0];
    // Spec. transitions: tr, t1, t''1, t6 t'1, t'6 t''4, t''5 t7.
    EXPECT_EQ(fired_row(tc1), "tr, t1, t''1, t6 t'1, t'6 t''4, t''5 t7");
    // Expected output: -, c'1, a3, a2, b3, d'1.
    EXPECT_EQ(expected_row(tc1), "-, c'@P1, a@P3, a@P2, b@P3, d'@P1");
    // Observed output: -, c'1, a3, a2, b3, c'1.
    EXPECT_EQ(observed_row(tc1), "-, c'@P1, a@P3, a@P2, b@P3, c'@P1");
}

TEST_F(paper_example_test, table1_tc2_rows) {
    const test_case& tc2 = ex.suite.cases[1];
    // Spec. transitions: -, t1, t'1, t'4, t''1, t''5 t4, t5 t''1.
    EXPECT_EQ(fired_row(tc2), "tr, t1, t'1, t'4, t''1, t''5 t4, t5 t''1");
    // Expected output: -, c'1, a2, b2, a3, d'1, a3 — and tc2 shows no
    // symptom (the faulty t''4 never executes).
    EXPECT_EQ(expected_row(tc2), "-, c'@P1, a@P2, b@P2, a@P3, d'@P1, a@P3");
    EXPECT_EQ(observed_row(tc2), expected_row(tc2));
}

TEST_F(paper_example_test, step3_symptom_and_ust) {
    simulated_iut iut(ex.spec, ex.fault);
    const auto report = collect_symptoms(ex.spec, ex.suite, iut);
    ASSERT_EQ(report.symptomatic_cases.size(), 1u);
    EXPECT_EQ(report.symptomatic_cases[0], 0u);  // tc1
    const auto& run = report.runs[0];
    ASSERT_TRUE(run.first_symptom.has_value());
    EXPECT_EQ(*run.first_symptom, 5u);  // 6th position (o_{1,6})
    ASSERT_TRUE(report.ust.has_value());
    EXPECT_EQ(ex.spec.transition_label(*report.ust), "M1.t7");
    EXPECT_EQ(to_string(report.uso, ex.spec.symbols()), "c'@P1");
    EXPECT_FALSE(report.flag);  // no discrepancy after the first symptom
}

TEST_F(paper_example_test, step4_conflict_sets) {
    simulated_iut iut(ex.spec, ex.fault);
    const auto report = collect_symptoms(ex.spec, ex.suite, iut);
    const auto confl = ref_oracle::generate_conflict_sets(ex.spec, report);

    auto set_names = [&](machine_id m, std::size_t k) {
        std::vector<std::string> out;
        for (transition_id t : confl.per_machine[m.value][k])
            out.push_back(ex.spec.machine(m).at(t).name);
        std::sort(out.begin(), out.end());
        return out;
    };
    using V = std::vector<std::string>;
    // Conf1_1 = {t1, t6, t7}, Conf2_1 = {t'1, t'6}, Conf3_1 = {t''1, t''4,
    // t''5}.
    EXPECT_EQ(set_names(m1, 0), (V{"t1", "t6", "t7"}));
    EXPECT_EQ(set_names(m2, 0), (V{"t'1", "t'6"}));
    EXPECT_EQ(set_names(m3, 0), (V{"t''1", "t''4", "t''5"}));
}

TEST_F(paper_example_test, step5_candidate_sets_and_hypotheses) {
    simulated_iut iut(ex.spec, ex.fault);
    const auto report = collect_symptoms(ex.spec, ex.suite, iut);
    const auto confl = ref_oracle::generate_conflict_sets(ex.spec, report);
    const auto cands = ref_oracle::generate_candidates(ex.spec, report, confl);

    auto names = [&](machine_id m, const std::vector<transition_id>& ts) {
        std::vector<std::string> out;
        for (transition_id t : ts)
            out.push_back(ex.spec.machine(m).at(t).name);
        std::sort(out.begin(), out.end());
        return out;
    };
    using V = std::vector<std::string>;

    // ITC = conflict sets (single symptomatic case, no intersection).
    EXPECT_EQ(names(m1, cands.itc[0]), (V{"t1", "t6", "t7"}));
    EXPECT_EQ(names(m2, cands.itc[1]), (V{"t'1", "t'6"}));
    EXPECT_EQ(names(m3, cands.itc[2]), (V{"t''1", "t''4", "t''5"}));

    // ustset1 = {t7}; FTCtr1 = {t1, t6}; FTCco1 = {t6}.
    ASSERT_TRUE(cands.ust.has_value());
    EXPECT_EQ(ex.spec.transition_label(*cands.ust), "M1.t7");
    EXPECT_EQ(names(m1, cands.ftc_tr[0]), (V{"t1", "t6"}));
    EXPECT_EQ(names(m1, cands.ftc_co[0]), (V{"t6"}));
    // FTCtr2 per the Step 5B text = ITC2 (no ust in M2); FTCco2 = {t'6}.
    EXPECT_EQ(names(m2, cands.ftc_tr[1]), (V{"t'1", "t'6"}));
    EXPECT_EQ(names(m2, cands.ftc_co[1]), (V{"t'6"}));
    EXPECT_EQ(names(m3, cands.ftc_tr[2]), (V{"t''1", "t''4", "t''5"}));
    EXPECT_EQ(names(m3, cands.ftc_co[2]), (V{"t''5"}));

    // Step 5B hypothesis sets.
    const auto dc =
        ref_oracle::evaluate_candidates(ex.spec, ex.suite, report, cands);
    auto find = [&](const std::string& label) -> const evaluated_candidate& {
        for (const auto& c : dc.evaluated) {
            if (ex.spec.transition_label(c.id) == label) return c;
        }
        throw error("candidate not evaluated: " + label);
    };

    // EndStates[t1] = EndStates[t6] = {}, outputs[t6] = {}.
    EXPECT_TRUE(find("M1.t1").end_states.empty());
    EXPECT_TRUE(find("M1.t6").end_states.empty());
    EXPECT_TRUE(find("M1.t6").outputs.empty());
    // ustset1 = {t7}: outputs[t7] = {c'} (flag = false path).
    const auto& ust = find("M1.t7");
    EXPECT_TRUE(ust.is_ust);
    ASSERT_EQ(ust.outputs.size(), 1u);
    EXPECT_EQ(ex.spec.symbols().name(ust.outputs[0]), "c'");
    // EndStates[t'1] = {}, outputs[t'6] = {}.
    EXPECT_TRUE(find("M2.t'1").end_states.empty());
    EXPECT_TRUE(find("M2.t'6").outputs.empty());
    // EndStates[t''1] = {}, EndStates[t''4] = {s0}, outputs[t''5] = {a}.
    EXPECT_TRUE(find("M3.t''1").end_states.empty());
    const auto& t4 = find("M3.t''4");
    ASSERT_EQ(t4.end_states.size(), 1u);
    EXPECT_EQ(ex.spec.machine(m3).state_name(t4.end_states[0]), "s0");
    const auto& t5 = find("M3.t''5");
    ASSERT_EQ(t5.outputs.size(), 1u);
    EXPECT_EQ(ex.spec.symbols().name(t5.outputs[0]), "a");

    // Step 5C: exactly the paper's three diagnoses.
    const auto diags = dc.diagnoses();
    std::vector<std::string> described;
    for (const auto& d : diags) described.push_back(describe(ex.spec, d));
    std::sort(described.begin(), described.end());
    ASSERT_EQ(described.size(), 3u);
    EXPECT_EQ(described[0], "M1.t7: output fault, c' instead of d'");
    EXPECT_EQ(described[1],
              "M3.t''4: transfer fault, next state s0 instead of s1");
    EXPECT_EQ(described[2], "M3.t''5: output fault, a instead of b");
}

TEST_F(paper_example_test, step6_full_diagnosis_localizes_t4) {
    simulated_iut iut(ex.spec, ex.fault);
    diagnoser_options opts;
    opts.evaluation = evaluation_mode::paper_flag_routing;
    const auto result = diagnose(ex.spec, ex.suite, iut, opts);

    EXPECT_EQ(result.outcome, diagnosis_outcome::localized);
    // Exactly the paper's three diagnoses enter Step 6.
    EXPECT_EQ(result.initial_diagnoses.size(), 3u);
    ASSERT_EQ(result.final_diagnoses.size(), 1u);
    EXPECT_EQ(result.final_diagnoses[0], ex.fault);
    EXPECT_FALSE(result.used_escalation);
    EXPECT_FALSE(result.used_fallback_search);

    // The paper needs exactly two additional tests: the ust output check
    // ("R, c1, b1") and one transfer check for t''4.
    ASSERT_EQ(result.additional_tests.size(), 2u);
    const auto& first = result.additional_tests[0];
    EXPECT_EQ(to_string(first.tc, ex.spec.symbols()), "R, c@P1, b@P1");
    EXPECT_EQ(first.purpose, "output check of M1.t7");
    // Observed "-, a2, d'1": t7 is correct.
    std::vector<std::string> obs;
    for (const auto& o : first.observed)
        obs.push_back(to_string(o, ex.spec.symbols()));
    EXPECT_EQ(join(obs, ", "), "-, a@P2, d'@P1");

    const auto& second = result.additional_tests[1];
    EXPECT_EQ(second.purpose, "transfer check of M3.t''4 (W probe)");
    // The transfer prefix is the paper's "R, c'3" followed by t''4's input
    // v3 and one distinguishing input for {s0, s1} of M3 (the paper picks
    // v3; c'3 is equally separating and our BFS finds it first — both are
    // "a possible sequence" in the paper's words).
    ASSERT_GE(second.tc.inputs.size(), 3u);
    EXPECT_EQ(to_string(second.tc.inputs[1], ex.spec.symbols()), "c'@P3");
    EXPECT_EQ(to_string(second.tc.inputs[2], ex.spec.symbols()), "v@P3");
}

TEST_F(paper_example_test, complete_mode_also_localizes_in_two_tests) {
    // The default (complete) evaluation admits extra double-fault couples
    // for the ust — tc1 ends at the symptom, so "c' and a transfer" is
    // consistent too — but the same two additional tests still settle it.
    simulated_iut iut(ex.spec, ex.fault);
    const auto result = diagnose(ex.spec, ex.suite, iut);
    EXPECT_EQ(result.outcome, diagnosis_outcome::localized);
    ASSERT_EQ(result.final_diagnoses.size(), 1u);
    EXPECT_EQ(result.final_diagnoses[0], ex.fault);
    EXPECT_GE(result.initial_diagnoses.size(), 3u);
    EXPECT_EQ(result.additional_tests.size(), 2u);
}

TEST_F(paper_example_test, fault_free_iut_passes) {
    simulated_iut iut(ex.spec);
    const auto result = diagnose(ex.spec, ex.suite, iut);
    EXPECT_EQ(result.outcome, diagnosis_outcome::passed);
    EXPECT_TRUE(result.final_diagnoses.empty());
}

}  // namespace
}  // namespace cfsmdiag::paperex
