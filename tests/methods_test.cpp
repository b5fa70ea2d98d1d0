// Unit tests for fsm/distinguish (DS, identification sets) and
// testgen/methods (W/Wp/UIO/DS suites) and testgen/diagnostic_suite.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ref_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::make_pair_system;

/// Classic machine WITH a distinguishing sequence: outputs on 'a' differ
/// per state.
fsm make_ds_machine(symbol_table& t) {
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x0", "s1");
    b.external("t2", "s1", "a", "x1", "s2");
    b.external("t3", "s2", "a", "x2", "s0");
    b.external("t4", "s0", "b", "y", "s0");
    b.external("t5", "s1", "b", "y", "s2");
    b.external("t6", "s2", "b", "y", "s1");
    return b.build("s0");
}

/// Machine with NO preset DS but with UIOs: on 'a' states s1,s2 merge into
/// s0 with equal outputs; separation needs different inputs per pair.
fsm make_no_ds_machine(symbol_table& t) {
    fsm_builder b("M", t);
    b.state("s0").state("s1").state("s2");
    // 'a' merges s1 and s2 into s0 with the same output — any DS starting
    // with 'a' is invalid; 'b' is a self-loop that separates s0 only;
    // 'c' separates s1 from s2 but merges s0 with s1.
    b.external("t1", "s0", "a", "ax", "s0");
    b.external("t2", "s1", "a", "am", "s0");
    b.external("t3", "s2", "a", "am", "s0");
    b.external("t4", "s0", "b", "b0", "s0");
    b.external("t5", "s1", "b", "b1", "s1");
    b.external("t6", "s2", "b", "b1", "s2");
    b.external("t7", "s0", "c", "cm", "s1");
    b.external("t8", "s1", "c", "cm", "s1");
    b.external("t9", "s2", "c", "c2", "s2");
    return b.build("s0");
}

TEST(ds_test, finds_ds_when_outputs_differ) {
    symbol_table t;
    const fsm m = make_ds_machine(t);
    const local_view view(m);
    const auto ds = preset_distinguishing_sequence(view);
    ASSERT_TRUE(ds.has_value());
    // A DS's label sequences must be pairwise distinct.
    for (std::uint32_t i = 0; i < 3; ++i) {
        for (std::uint32_t j = i + 1; j < 3; ++j) {
            EXPECT_NE(view.run(state_id{i}, *ds),
                      view.run(state_id{j}, *ds));
        }
    }
    EXPECT_EQ(ds->size(), 1u);  // 'a' alone suffices here
}

TEST(ds_test, validity_rule_rejects_merging_inputs) {
    symbol_table t;
    const fsm m = make_no_ds_machine(t);
    const local_view view(m);
    // b separates {s0} from {s1,s2} and keeps everyone in place; c then
    // separates s1 from s2 — so a DS exists: "b c"?  Check what the search
    // says and verify whatever it returns.
    const auto ds = preset_distinguishing_sequence(view);
    if (ds) {
        for (std::uint32_t i = 0; i < 3; ++i) {
            for (std::uint32_t j = i + 1; j < 3; ++j) {
                EXPECT_NE(view.run(state_id{i}, *ds),
                          view.run(state_id{j}, *ds));
            }
        }
    } else {
        // If absent, at least one pair must really be inseparable by any
        // single preset sequence of length <= 12 — spot-check pairwise
        // separability still holds (so absence is about *one* preset
        // sequence, not about distinguishability).
        EXPECT_TRUE(locally_distinguishable(view, state_id{0}, state_id{1}));
    }
}

TEST(ds_test, single_state_machine_has_empty_ds) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s0");
    const fsm m = b.build("s0");
    const auto ds = preset_distinguishing_sequence(local_view(m));
    ASSERT_TRUE(ds.has_value());
    EXPECT_TRUE(ds->empty());
}

TEST(identification_set_test, separates_state_from_all_others) {
    symbol_table t;
    const fsm m = make_ds_machine(t);
    const local_view view(m);
    const auto w = characterization_set(view);
    for (std::uint32_t s = 0; s < 3; ++s) {
        const auto ident = state_identification_set(view, state_id{s}, w);
        EXPECT_TRUE(ident.uncovered.empty());
        for (std::uint32_t o = 0; o < 3; ++o) {
            if (o == s) continue;
            const bool separated = std::any_of(
                ident.sequences.begin(), ident.sequences.end(),
                [&](const auto& seq) {
                    return view.run(state_id{s}, seq) !=
                           view.run(state_id{o}, seq);
                });
            EXPECT_TRUE(separated) << s << " vs " << o;
        }
        // Identification sets should not exceed the full W.
        EXPECT_LE(ident.sequences.size(), w.size());
    }
}

class method_suite_test
    : public ::testing::TestWithParam<verification_method> {};

TEST_P(method_suite_test, detects_all_output_faults_on_pair_system) {
    const system sys = make_pair_system();
    const auto result = per_machine_method_suite(sys, GetParam());
    EXPECT_TRUE(result.unreachable.empty());
    for (const auto& f : enumerate_output_faults(sys)) {
        EXPECT_TRUE(detects(sys, result.suite, f))
            << to_string(GetParam()) << ": " << describe(sys, f);
    }
}

TEST_P(method_suite_test, detects_all_output_faults_on_random_system) {
    rng random(99);
    random_system_options opts;
    opts.machines = 3;
    opts.states_per_machine = 3;
    const system sys = random_system(opts, random);
    const auto result = per_machine_method_suite(sys, GetParam());
    for (const auto& f : enumerate_output_faults(sys)) {
        // Output faults on globally reachable transitions must be caught.
        const bool reachable = std::none_of(
            result.unreachable.begin(), result.unreachable.end(),
            [&](global_transition_id id) { return id == f.target; });
        if (!reachable) continue;
        EXPECT_TRUE(detects(sys, result.suite, f))
            << to_string(GetParam()) << ": " << describe(sys, f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    methods, method_suite_test,
    ::testing::Values(verification_method::w, verification_method::wp,
                      verification_method::uio, verification_method::ds),
    [](const ::testing::TestParamInfo<verification_method>& info) {
        return to_string(info.param);
    });

TEST(method_suite_test_sizes, wp_is_no_larger_than_w) {
    const system sys = make_pair_system();
    const auto w = per_machine_method_suite(sys, verification_method::w);
    const auto wp = per_machine_method_suite(sys, verification_method::wp);
    EXPECT_LE(wp.suite.total_inputs(), w.suite.total_inputs());
}

TEST(diagnostic_suite_test, separates_spec_from_every_detectable_fault) {
    const system sys = make_pair_system();
    const auto result = apriori_diagnostic_suite(sys);
    EXPECT_FALSE(result.truncated);
    EXPECT_GT(result.hypotheses, 0u);

    for (const auto& f : enumerate_all_faults(sys)) {
        const bool detected = detects(sys, result.suite, f);
        if (!detected) {
            // Must be observationally equivalent to the spec: no splitting
            // sequence exists.
            const auto seq = ref_oracle::splitting_sequence(
                sys, {{}, {f.to_override()}});
            EXPECT_FALSE(seq.has_value()) << describe(sys, f);
        }
    }
}

TEST(diagnostic_suite_test, localizes_without_adaptivity) {
    // After running just the a-priori suite, the consistent-hypothesis set
    // must already be a single equivalence class for every fault.
    const system sys = make_pair_system();
    const auto dx = apriori_diagnostic_suite(sys);
    auto faults = enumerate_all_faults(sys);

    for (const auto& truth : faults) {
        if (!detects(sys, dx.suite, truth)) continue;
        simulated_iut iut(sys, truth);
        diagnoser_options opts;
        opts.structured_step6 = false;
        opts.fallback_search = false;  // no adaptivity allowed
        const auto result = diagnose(sys, dx.suite, iut, opts);
        ASSERT_FALSE(result.final_diagnoses.empty())
            << describe(sys, truth);
        // All finals must be observationally equivalent to the truth.
        for (const auto& d : result.final_diagnoses) {
            EXPECT_TRUE(observationally_equivalent(sys, truth, d))
                << describe(sys, truth) << " vs " << describe(sys, d);
        }
    }
}

}  // namespace
}  // namespace cfsmdiag
