// Tests for util/json, diag/report, testgen/reduce, testgen/mutation.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::make_pair_system;
using testing_helpers::tid;

TEST(json_test, scalar_rendering) {
    EXPECT_EQ(json_value::null().dump(), "null");
    EXPECT_EQ(json_value::boolean(true).dump(), "true");
    EXPECT_EQ(json_value::number(std::int64_t{-3}).dump(), "-3");
    EXPECT_EQ(json_value::number(2.5).dump(), "2.5");
    EXPECT_EQ(json_value::string("hi").dump(), "\"hi\"");
}

TEST(json_test, escaping) {
    EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(json_value::string("\t\x01").dump(), "\"\\t\\u0001\"");
}

TEST(json_test, nested_structures_and_key_order) {
    auto obj = json_value::object();
    obj.set("b", json_value::number(std::size_t{1}));
    obj.set("a", json_value::number(std::size_t{2}));
    auto arr = json_value::array();
    arr.push(json_value::string("x"));
    arr.push(json_value::null());
    obj.set("list", std::move(arr));
    // Insertion order preserved; duplicate set replaces in place.
    obj.set("b", json_value::number(std::size_t{7}));
    EXPECT_EQ(obj.dump(), R"({"b":7,"a":2,"list":["x",null]})");
}

TEST(json_test, pretty_print_has_indentation) {
    auto obj = json_value::object();
    obj.set("k", json_value::string("v"));
    const std::string pretty = obj.dump(true);
    EXPECT_NE(pretty.find("\n  \"k\": \"v\"\n"), std::string::npos);
}

TEST(json_test, type_misuse_throws) {
    auto arr = json_value::array();
    EXPECT_THROW(arr.set("k", json_value::null()), error);
    auto obj = json_value::object();
    EXPECT_THROW(obj.push(json_value::null()), error);
}

TEST(report_test, diagnosis_report_contains_key_fields) {
    const auto ex = paperex::make_paper_example();
    simulated_iut iut(ex.spec, ex.fault);
    diagnoser_options opts;
    opts.evaluation = evaluation_mode::paper_flag_routing;
    const auto result = diagnose(ex.spec, ex.suite, iut, opts);
    const std::string json = report_to_json(ex.spec, result).dump();

    EXPECT_NE(json.find("\"outcome\":\"localized\""), std::string::npos);
    EXPECT_NE(json.find("\"step6_case\":\"Case 5\""), std::string::npos);
    EXPECT_NE(json.find("\"ust\":\"M1.t7\""), std::string::npos);
    EXPECT_NE(json.find("\"transition\":\"M3.t''4\""), std::string::npos);
    EXPECT_NE(json.find("\"faulty_next\":\"s0\""), std::string::npos);
    EXPECT_NE(json.find("\"used_escalation\":false"), std::string::npos);
}

TEST(report_test, multi_fault_report_renders) {
    const system sys = make_pair_system();
    const fault_set truth{{
        {tid(sys, 0, "a2"), sys.symbols().lookup("ok"), std::nullopt},
        {tid(sys, 1, "b5"), sys.symbols().lookup("r2"), std::nullopt},
    }};
    simulated_multi_iut iut(sys, truth);
    test_suite suite = transition_tour(sys).suite;
    rng wr(5);
    suite.extend(random_walk_suite(sys, wr,
                                   {.cases = 4, .steps_per_case = 8}));
    const auto result = diagnose_multi(sys, suite, iut);
    const std::string json = report_to_json(sys, result).dump();
    EXPECT_NE(json.find("\"initial_hypotheses\""), std::string::npos);
    EXPECT_NE(json.find("\"final_hypotheses\""), std::string::npos);
}

TEST(reduce_test, keeps_detection_power) {
    const system sys = make_pair_system();
    // A deliberately redundant suite: W suite + tour + walks.
    test_suite fat = per_machine_w_suite(sys).suite;
    fat.extend(transition_tour(sys).suite);
    rng wr(2);
    fat.extend(random_walk_suite(sys, wr,
                                 {.cases = 6, .steps_per_case = 10}));

    const auto faults = enumerate_all_faults(sys);
    const auto reduced = reduce_suite(sys, fat, faults);
    EXPECT_LT(reduced.cases_after, reduced.cases_before);

    for (const auto& f : faults) {
        EXPECT_EQ(detects(sys, fat, f), detects(sys, reduced.suite, f))
            << describe(sys, f);
    }
}

TEST(reduce_test, reports_undetectable_faults) {
    const system sys = make_pair_system();
    test_suite tiny;
    tiny.add(parse_compact("t", "R, x1", sys.symbols()));
    const auto faults = enumerate_all_faults(sys);
    const auto reduced = reduce_suite(sys, tiny, faults);
    EXPECT_GT(reduced.undetected_faults, 0u);
    EXPECT_EQ(reduced.cases_after, 1u);
}

TEST(reduce_test, empty_suite_is_fine) {
    const system sys = make_pair_system();
    const auto reduced =
        reduce_suite(sys, {}, enumerate_all_faults(sys));
    EXPECT_EQ(reduced.cases_after, 0u);
    EXPECT_EQ(reduced.undetected_faults,
              enumerate_all_faults(sys).size());
}

TEST(mutation_test, strong_suite_scores_high) {
    const system sys = make_pair_system();
    const auto dx = apriori_diagnostic_suite(sys);
    const auto report = mutation_score(sys, dx.suite);
    EXPECT_EQ(report.mutants, enumerate_all_faults(sys).size());
    EXPECT_TRUE(report.survivors.empty())
        << describe(sys, report.survivors.front());
    EXPECT_DOUBLE_EQ(report.score(), 1.0);
}

TEST(mutation_test, weak_suite_reports_survivors) {
    const system sys = make_pair_system();
    test_suite tiny;
    tiny.add(parse_compact("t", "R, x1", sys.symbols()));
    const auto report = mutation_score(sys, tiny);
    EXPECT_FALSE(report.survivors.empty());
    EXPECT_LT(report.score(), 1.0);
    // Survivors are genuinely killable: a splitting sequence exists.
    for (const auto& f : report.survivors) {
        EXPECT_TRUE(
            ref_oracle::splitting_sequence(sys, {{}, {f.to_override()}})
                .has_value())
            << describe(sys, f);
    }
}

TEST(mutation_test, equivalent_mutants_excluded_from_denominator) {
    // System with twin states: the transfer-to-twin mutant is equivalent.
    symbol_table t;
    fsm_builder a("A", t);
    a.state("s0").state("s1").state("s2");
    a.external("a1", "s0", "x", "go", "s1");
    a.external("a2", "s1", "x", "loop", "s1");
    a.external("a3", "s2", "x", "loop", "s2");
    fsm_builder b("B", t);
    b.external("b1", "q0", "y", "r", "q0");
    std::vector<fsm> machines;
    machines.push_back(a.build("s0"));
    machines.push_back(b.build("q0"));
    const system sys("twin", std::move(t), std::move(machines));

    const auto suite = per_machine_w_suite(sys).suite;
    const auto report = mutation_score(sys, suite);
    EXPECT_FALSE(report.equivalent.empty());
    for (const auto& f : report.equivalent) {
        EXPECT_FALSE(
            ref_oracle::splitting_sequence(sys, {{}, {f.to_override()}})
                .has_value())
            << describe(sys, f);
    }
}

}  // namespace
}  // namespace cfsmdiag
