// Property-style sweeps (TEST_P): the paper's guarantee, checked
// exhaustively.
//
// For every single-transition fault (output, transfer, or both) that the
// detection suite catches, the diagnoser must
//   (soundness)   keep the true hypothesis — or an observationally
//                 equivalent one — among the final diagnoses, and
//   (sharpness)   end localized or localized-up-to-equivalence.
#include <gtest/gtest.h>

#include <bit>

#include "helpers.hpp"
#include "models/models.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::make_pair_system;

struct sweep_config {
    std::string name;
    std::uint64_t seed = 0;         ///< 0 = use the fixed pair system
    std::size_t machines = 2;
    std::size_t states = 3;
    std::size_t extra = 5;
    std::size_t max_faults = 200;
};

std::ostream& operator<<(std::ostream& os, const sweep_config& c) {
    return os << c.name;
}

class fault_sweep : public ::testing::TestWithParam<sweep_config> {
  protected:
    [[nodiscard]] system make_system() const {
        const auto& cfg = GetParam();
        if (cfg.seed == 0) return make_pair_system();
        rng random(cfg.seed);
        random_system_options opts;
        opts.machines = cfg.machines;
        opts.states_per_machine = cfg.states;
        opts.extra_transitions = cfg.extra;
        return random_system(opts, random);
    }
};

TEST_P(fault_sweep, detected_faults_are_diagnosed_soundly) {
    const system sys = make_system();
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > GetParam().max_faults)
        faults.resize(GetParam().max_faults);

    campaign_options opts;
    const auto stats = run_campaign(sys, suite, faults, opts);

    EXPECT_EQ(stats.total, faults.size());
    for (const auto& entry : stats.entries) {
        if (!entry.detected) continue;
        SCOPED_TRACE(describe(sys, entry.fault));
        // Soundness: truth among final diagnoses (maybe via equivalence).
        EXPECT_TRUE(entry.sound);
        // Sharpness: the run must terminate in a localized state.
        EXPECT_TRUE(entry.outcome == diagnosis_outcome::localized ||
                    entry.outcome ==
                        diagnosis_outcome::localized_up_to_equivalence)
            << to_string(entry.outcome);
    }
}

TEST_P(fault_sweep, undetected_faults_pass_quietly) {
    const system sys = make_system();
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > GetParam().max_faults)
        faults.resize(GetParam().max_faults);
    for (const auto& f : faults) {
        if (detects(sys, suite, f)) continue;
        simulated_iut iut(sys, f);
        const auto result = diagnose(sys, suite, iut);
        EXPECT_EQ(result.outcome, diagnosis_outcome::passed)
            << describe(sys, f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    systems, fault_sweep,
    ::testing::Values(
        sweep_config{.name = "pair", .seed = 0},
        sweep_config{.name = "rand2x3", .seed = 101, .machines = 2,
                     .states = 3, .extra = 5},
        sweep_config{.name = "rand2x4", .seed = 202, .machines = 2,
                     .states = 4, .extra = 7},
        sweep_config{.name = "rand3x3", .seed = 303, .machines = 3,
                     .states = 3, .extra = 6},
        sweep_config{.name = "rand3x4", .seed = 404, .machines = 3,
                     .states = 4, .extra = 8, .max_faults = 120},
        sweep_config{.name = "rand4x3", .seed = 505, .machines = 4,
                     .states = 3, .extra = 6, .max_faults = 100},
        sweep_config{.name = "rand5x2", .seed = 606, .machines = 5,
                     .states = 2, .extra = 5, .max_faults = 100}),
    [](const ::testing::TestParamInfo<sweep_config>& info) {
        return info.param.name;
    });

class paper_fault_sweep : public ::testing::TestWithParam<int> {};

TEST(paper_exhaustive, every_detected_fault_is_diagnosed) {
    const auto ex = paperex::make_paper_example();
    // Use a stronger suite than Table 1's two cases: the transition tour,
    // which covers all transitions.
    const test_suite suite = transition_tour(ex.spec).suite;
    auto faults = enumerate_all_faults(ex.spec);

    campaign_options opts;
    const auto stats = run_campaign(ex.spec, suite, faults, opts);
    EXPECT_GT(stats.detected, 0u);
    EXPECT_EQ(stats.sound, stats.detected);
    EXPECT_EQ(stats.localized + stats.localized_equiv, stats.detected);
}

TEST(paper_exhaustive, table1_suite_diagnoses_its_detectable_faults) {
    const auto ex = paperex::make_paper_example();
    auto faults = enumerate_all_faults(ex.spec);
    campaign_options opts;
    const auto stats = run_campaign(ex.spec, ex.suite, faults, opts);
    // Table 1's two test cases detect only some faults; whatever they
    // detect must be diagnosed soundly.
    for (const auto& entry : stats.entries) {
        if (!entry.detected) continue;
        SCOPED_TRACE(describe(ex.spec, entry.fault));
        EXPECT_TRUE(entry.sound);
    }
    EXPECT_EQ(stats.sound, stats.detected);
}

// --- compiled-core set algebra vs the std::set reference --------------------
//
// The flat core lowers Steps 4-5A onto bitsets over dense transition ids;
// the reporting boundary rebuilds conflict_sets/candidate_sets.  Those
// rebuilt structs must equal the reference implementations exactly — on the
// Figure-1 system and across random systems, for detected faults (populated
// sets) and undetected ones (the empty-report edge, where every set stays
// empty).

/// Runs one fault through both pipelines and compares Steps 4-5A.
void expect_compiled_sets_match(const system& spec, const spec_context& ctx,
                                const single_transition_fault& fault) {
    simulated_iut iut(spec, fault);
    const symptom_report report =
        collect_symptoms(spec, ctx.suite(), iut, ctx.traces());

    const conflict_sets ref_confl = generate_conflict_sets(spec, report);
    const candidate_sets ref_cands =
        generate_candidates(spec, report, ref_confl);

    bit_arena arena;
    const compiled_conflicts cc =
        compile_conflicts(ctx.compiled(), report, arena);
    const conflict_sets flat_confl =
        materialize_conflict_sets(ctx.compiled(), cc);
    const candidate_sets flat_cands =
        materialize_candidate_sets(ctx.compiled(), report, cc);

    EXPECT_EQ(flat_confl.per_machine, ref_confl.per_machine);
    EXPECT_EQ(flat_cands.itc, ref_cands.itc);
    EXPECT_EQ(flat_cands.ftc_tr, ref_cands.ftc_tr);
    EXPECT_EQ(flat_cands.ftc_co, ref_cands.ftc_co);
    EXPECT_EQ(flat_cands.ust, ref_cands.ust);
}

TEST(compiled_core, set_algebra_matches_reference_on_figure1) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    ASSERT_TRUE(ctx.compiled().packable);
    for (const auto& fault : enumerate_all_faults(ex.spec)) {
        SCOPED_TRACE(describe(ex.spec, fault));
        expect_compiled_sets_match(ex.spec, ctx, fault);
    }
}

TEST(compiled_core, set_algebra_matches_reference_on_random_systems) {
    // 20 random systems, including tiny 2x2 ones whose conflict sets often
    // cover a whole machine (the full-universe edge) and whose undetected
    // faults exercise the empty edge.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = seed % 3 == 0 ? 3 : 2;
        opts.states_per_machine = seed % 2 == 0 ? 2 : 3;
        opts.extra_transitions = 3 + seed % 4;
        const system sys = random_system(opts, random);
        const spec_context ctx(sys, transition_tour(sys).suite);
        ASSERT_TRUE(ctx.compiled().packable) << "seed " << seed;

        const auto faults = enumerate_all_faults(sys);
        for (std::size_t i = 0; i < faults.size(); i += 4) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         describe(sys, faults[i]));
            expect_compiled_sets_match(sys, ctx, faults[i]);
        }
    }
}

TEST(compiled_core, diagnose_identical_with_core_on_and_off) {
    // Full-pipeline identity: the compiled Steps 4-5C hot path (and the
    // engine-backed Step 6) against the uncached reference oracle.
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    ASSERT_TRUE(ctx.compiled().packable);
    std::size_t checked = 0;
    const auto faults = enumerate_all_faults(ex.spec);
    for (std::size_t i = 0; i < faults.size(); i += 3) {
        SCOPED_TRACE(describe(ex.spec, faults[i]));
        simulated_iut iut(ex.spec, faults[i]);
        ref_oracle::expect_diagnosis_matches(ex.spec, suite,
                                             diagnose(ctx, iut));
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST(compiled_core, campaign_entries_identical_with_core_on_and_off) {
    rng random(4242);
    random_system_options opts;
    opts.machines = 2;
    opts.states_per_machine = 3;
    opts.extra_transitions = 5;
    const system sys = random_system(opts, random);
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > 60) faults.resize(60);

    campaign_engine engine(sys, suite, faults, {});
    ASSERT_TRUE(engine.context().compiled().packable);
    const campaign_stats& stats = engine.run();
    // Same hypothesis work as the uncached reference, entry for entry.
    ref_oracle::expect_entries_match(sys, suite, faults, stats.entries);
}

// --- W-word packing ---------------------------------------------------------

/// Every packed spec state of the context decodes to its Step-1 trace state,
/// and no machine's field straddles a word.
void expect_packing_matches_traces(const spec_context& ctx) {
    const compiled_spec& cs = ctx.compiled();
    const std::size_t machines = cs.state_count.size();
    for (std::size_t m = 0; m < machines; ++m) {
        EXPECT_LT(cs.state_word[m], cs.words);
        EXPECT_LE(cs.state_shift[m] + std::bit_width(cs.state_mask[m]), 64u)
            << "machine " << m << " straddles a word";
    }
    const auto field = [&](const std::uint64_t* state, std::size_t m) {
        return static_cast<std::uint32_t>(
            (state[cs.state_word[m]] >> cs.state_shift[m]) &
            cs.state_mask[m]);
    };
    for (std::size_t m = 0; m < machines; ++m)
        EXPECT_EQ(field(cs.initial_packed.data(), m),
                  ctx.spec().machine(machine_id{static_cast<std::uint32_t>(
                                         m)})
                      .initial_state()
                      .value);
    for (std::size_t ci = 0; ci < cs.cases.size(); ++ci) {
        const auto& trace = (*ctx.traces())[ci];
        ASSERT_EQ(cs.cases[ci].state_before.size(), trace.size() * cs.words);
        for (std::size_t k = 0; k < trace.size(); ++k) {
            const std::uint64_t* state =
                cs.cases[ci].state_before.data() + k * cs.words;
            for (std::size_t m = 0; m < machines; ++m)
                ASSERT_EQ(field(state, m), trace[k].before.states[m].value)
                    << "case " << ci << ", step " << k << ", machine " << m;
        }
    }
}

/// token_ring(64)'s shape, except that the last station has a third state
/// (it can hold the token): its two-bit field would take bits 63 and 64, so
/// it opens the second word instead.  One token keeps the reachable global
/// states few, as on the ring.
system make_straddling_ring() {
    constexpr std::size_t n = 64;
    symbol_table symbols;
    const auto tok = [](std::size_t from, std::size_t to) {
        return "tok" + std::to_string(from) + "_" + std::to_string(to);
    };
    std::vector<fsm> machines;
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t next = i % n + 1;
        const std::size_t prev = (i + n - 2) % n + 1;
        const std::string name = "St" + std::to_string(i);
        fsm_builder b(name, symbols);
        b.external("recv_" + name, "idle", tok(prev, i), "got", "has");
        b.internal("pass_" + name, "has", "pass", tok(i, next), "idle",
                   machine_id{static_cast<std::uint32_t>(next - 1)});
        b.external("qi_" + name, "idle", "query", "no", "idle");
        b.external("qh_" + name, "has", "query", "yes", "has");
        if (i == 1)
            b.external("inject1", "idle", "inject", "created", "has");
        if (i == n) {
            b.external("hold_" + name, "has", "hold", "held", "busy");
            b.external("free_" + name, "busy", "hold", "freed", "has");
            b.external("qb_" + name, "busy", "query", "busy", "busy");
        }
        machines.push_back(b.build("idle"));
    }
    return system("straddling_ring", std::move(symbols), std::move(machines));
}

TEST(compiled_core, packing_at_the_word_boundary) {
    // 64 one-bit stations fill one word; the 65th opens a second.
    for (const std::size_t n : {std::size_t{64}, std::size_t{65}}) {
        SCOPED_TRACE("token_ring(" + std::to_string(n) + ")");
        const system ring = models::token_ring(n);
        const spec_context ctx(ring, transition_tour(ring).suite);
        EXPECT_EQ(ctx.compiled().words, n == 64 ? 1u : 2u);
        EXPECT_EQ(ctx.compiled().state_word.back(), n == 64 ? 0u : 1u);
        expect_packing_matches_traces(ctx);
    }

    const system sys = make_straddling_ring();
    const test_suite suite = transition_tour(sys).suite;
    const spec_context ctx(sys, suite);
    const compiled_spec& cs = ctx.compiled();
    ASSERT_EQ(cs.state_count.back(), 3u);
    ASSERT_EQ(cs.words, 2u);
    EXPECT_EQ(cs.state_word[62], 0u);
    EXPECT_EQ(cs.state_shift[62], 62u);
    EXPECT_EQ(cs.state_word.back(), 1u);
    EXPECT_EQ(cs.state_shift.back(), 0u);
    expect_packing_matches_traces(ctx);

    // Diagnoses on both words against the oracle: every third fault of the
    // three-state station, and every 61st of the others.  Small search
    // caps keep Step 6 short: `inject` makes any number of tokens, so the
    // transfer searches and the proofs of equivalence would otherwise walk
    // a huge global state space.
    ctx.build_dictionary();
    diagnoser_options options;
    options.max_joint_states = 300;
    options.step6.search.max_states = 300;
    const auto faults = enumerate_all_faults(sys);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (i % (faults[i].target.machine.value == 63 ? 3 : 61) != 0)
            continue;
        SCOPED_TRACE(describe(sys, faults[i]));
        simulated_iut iut(sys, faults[i]);
        ref_oracle::expect_diagnosis_matches(
            sys, suite, diagnose(ctx, iut, options), options);
        ++checked;
    }
    EXPECT_GT(checked, 40u);
}

TEST(compiled_core, every_system_packs) {
    for (const auto& [name, sys] : models::zoo_models()) {
        const spec_context ctx(sys, transition_tour(sys).suite);
        EXPECT_TRUE(ctx.compiled().packable) << name;
        EXPECT_EQ(ctx.compiled().words, 1u) << name;
    }
    for (const auto& [name, sys] : models::all_models()) {
        const spec_context ctx(sys, transition_tour(sys).suite);
        EXPECT_TRUE(ctx.compiled().packable) << name;
        EXPECT_EQ(ctx.compiled().words, 1u) << name;
    }
    for (const std::size_t n : {std::size_t{65}, std::size_t{66}}) {
        const system ring = models::token_ring(n);
        const spec_context ctx(ring, transition_tour(ring).suite);
        EXPECT_TRUE(ctx.compiled().packable) << "token_ring " << n;
        EXPECT_EQ(ctx.compiled().words, 2u);
    }
}

TEST(random_system_test, generator_produces_valid_connected_systems) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 17ull, 99ull}) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 3;
        opts.states_per_machine = 4;
        const system sys = random_system(opts, random);
        EXPECT_TRUE(check_structure(sys).empty()) << "seed " << seed;
        for (std::uint32_t m = 0; m < sys.machine_count(); ++m) {
            EXPECT_TRUE(is_initially_connected(sys.machine(machine_id{m})))
                << "seed " << seed << " machine " << m;
        }
    }
}

TEST(random_system_test, deterministic_under_seed) {
    random_system_options opts;
    rng r1(5), r2(5);
    const system a = random_system(opts, r1);
    const system b = random_system(opts, r2);
    ASSERT_EQ(a.machine_count(), b.machine_count());
    for (std::uint32_t m = 0; m < a.machine_count(); ++m) {
        const auto& ta = a.machine(machine_id{m}).transitions();
        const auto& tb = b.machine(machine_id{m}).transitions();
        ASSERT_EQ(ta.size(), tb.size());
        for (std::size_t i = 0; i < ta.size(); ++i) {
            EXPECT_EQ(ta[i].from, tb[i].from);
            EXPECT_EQ(ta[i].input, tb[i].input);
            EXPECT_EQ(ta[i].output, tb[i].output);
            EXPECT_EQ(ta[i].to, tb[i].to);
        }
    }
}

}  // namespace
}  // namespace cfsmdiag
