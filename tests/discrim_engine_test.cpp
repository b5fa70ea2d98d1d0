// The flat discrimination engine (diag/discrim_engine.hpp): result identity
// with the reference joint search — per splitting-sequence call (memo miss
// and memo hit), on specs whose chains throw, and through the full
// diagnose()/run_campaign() pipeline against the reference oracle
// (tests/reference_oracle.hpp), at jobs 1 and 2 on cold and warm contexts —
// the property that every returned sequence actually splits its hypothesis
// set, error parity on malformed overrides, and determinism of the memo
// counters at any job count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <typeinfo>

#include "cfsmdiag.hpp"
#include "models/models.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

/// Engine vs reference search, including thrown error parity, for one
/// hypothesis set and cap.  The engine is asked twice: the first call may
/// compute (a memo miss, unless an earlier query shared the key), the
/// second is served by the memo.
void expect_engine_matches_reference(
    const cfsmdiag::system& spec, const discrim_engine& engine,
    const std::vector<std::vector<transition_override>>& hyps,
    std::size_t cap) {
    std::optional<std::vector<global_input>> ref;
    bool ref_threw = false;
    std::string ref_msg;
    try {
        ref = ref_oracle::splitting_sequence(spec, hyps, cap);
    } catch (const error& e) {
        ref_threw = true;
        ref_msg = std::string(typeid(e).name()) + ": " + e.what();
    }
    for (const int call : {1, 2}) {
        SCOPED_TRACE("cap " + std::to_string(cap) + ", call " +
                     std::to_string(call));
        std::optional<std::vector<global_input>> flat;
        bool flat_threw = false;
        std::string flat_msg;
        try {
            flat = engine.splitting_sequence(hyps, cap);
        } catch (const error& e) {
            flat_threw = true;
            flat_msg = std::string(typeid(e).name()) + ": " + e.what();
        }
        ASSERT_EQ(ref_threw, flat_threw);
        if (ref_threw) {
            EXPECT_EQ(ref_msg, flat_msg);
        } else {
            EXPECT_EQ(ref, flat);
        }
    }
}

/// Single-override hypothesis per enumerated fault, plus the unmutated
/// spec.
std::vector<std::vector<transition_override>> fault_hypotheses(
    const cfsmdiag::system& spec) {
    std::vector<std::vector<transition_override>> all;
    for (const auto& f : enumerate_all_faults(spec))
        all.push_back({f.to_override()});
    all.push_back({});
    return all;
}

TEST(discrim_engine, splitting_sequence_identity_paper) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto all = fault_hypotheses(ex.spec);

    for (std::size_t i = 0; i < all.size(); i += 3) {
        for (std::size_t j = i + 1; j < all.size(); j += 5 + (i % 3)) {
            SCOPED_TRACE("pair " + std::to_string(i) + "," +
                         std::to_string(j));
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[j]};
            for (const std::size_t cap :
                 {std::size_t{100'000}, std::size_t{7}})
                expect_engine_matches_reference(ex.spec, ctx.discrim(),
                                                hyps, cap);
        }
    }
    // Larger sets exercise the k-way joint space.
    for (std::size_t i = 0; i + 4 < all.size(); i += 7) {
        SCOPED_TRACE("triple from " + std::to_string(i));
        const std::vector<std::vector<transition_override>> hyps{
            all[i], all[i + 2], all[i + 4]};
        expect_engine_matches_reference(ex.spec, ctx.discrim(), hyps,
                                        100'000);
    }

    // A zoo model, queried with the hypothesis sets Step 6 sees: each
    // fault's Step 5 survivors.  Some are sets of equivalent hypotheses,
    // on which the search must exhaust the joint space.  The survivors
    // come from a second context, so the engine under test starts with an
    // empty memo.
    const cfsmdiag::system zoo = models::sliding_window(4);
    const test_suite zoo_suite = transition_tour(zoo).suite;
    const spec_context probe(zoo, zoo_suite);
    const spec_context zoo_ctx(zoo, zoo_suite);
    diagnoser_options step5_only;
    step5_only.max_additional_tests = 0;
    std::size_t sets = 0;
    for (const auto& fault : enumerate_all_faults(zoo)) {
        simulated_iut iut(zoo, fault);
        const auto live = diagnose(probe, iut, step5_only).initial_diagnoses;
        if (live.size() < 2) continue;
        ++sets;
        SCOPED_TRACE(describe(zoo, fault));
        for (const std::size_t cap : {std::size_t{100'000}, std::size_t{7}})
            expect_engine_matches_reference(zoo, zoo_ctx.discrim(),
                                            ref_oracle::overrides_of(live),
                                            cap);
    }
    EXPECT_GT(sets, 0u);
}

TEST(discrim_engine, splitting_sequence_identity_random_20_systems) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        const cfsmdiag::system sys = random_system(opts, random);
        const test_suite suite = transition_tour(sys).suite;
        const spec_context ctx(sys, suite);
        const auto all = fault_hypotheses(sys);

        for (std::size_t i = 0; i < all.size(); i += 4) {
            for (std::size_t j = i + 1; j < all.size(); j += 6) {
                SCOPED_TRACE("seed " + std::to_string(seed) + ", pair " +
                             std::to_string(i) + "," + std::to_string(j));
                const std::vector<std::vector<transition_override>> hyps{
                    all[i], all[j]};
                expect_engine_matches_reference(sys, ctx.discrim(), hyps,
                                                100'000);
            }
        }
        for (std::size_t i = 0; i + 6 < all.size(); i += 9) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", triple from " +
                         std::to_string(i));
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[i + 3], all[i + 6]};
            expect_engine_matches_reference(sys, ctx.discrim(), hyps,
                                            100'000);
        }
    }
}

TEST(discrim_engine, splitting_sequence_identity_wide_random_systems) {
    // Random systems wider than one word: 22 machines of 3 bits (the last
    // field would straddle bit 64, so it opens the second word) and 17 of
    // 4 bits.  Their global state spaces are huge, so every search runs
    // under a small visited cap, and a short random walk is suite enough
    // (only the context's tables matter here).
    std::size_t checked = 0;
    std::size_t deep = 0;       // pairs split after more than one input
    std::size_t exhausted = 0;  // pairs the capped search could not split
    for (const std::uint64_t seed : {3u, 4u, 7u, 8u}) {
        rng random(seed);
        random_system_options opts;
        opts.machines = seed % 2 == 1 ? 22 : 17;
        opts.states_per_machine = seed % 2 == 1 ? 8 : 16;
        opts.extra_transitions = 3;
        const cfsmdiag::system sys = random_system(opts, random);
        rng walk(seed + 1000);
        const test_suite suite = random_walk_suite(
            sys, walk, {.cases = 2, .steps_per_case = 12});
        const spec_context ctx(sys, suite);
        ASSERT_EQ(ctx.compiled().words, 2u) << "seed " << seed;
        // About 30 pairs and 16 triples out of thousands of hypotheses.
        const auto all = fault_hypotheses(sys);
        const std::size_t stride = all.size() / 8;
        for (std::size_t i = 0; i < all.size(); i += stride) {
            for (std::size_t j = i + 1; j < all.size(); j += stride - 7) {
                SCOPED_TRACE("seed " + std::to_string(seed) + ", pair " +
                             std::to_string(i) + "," + std::to_string(j));
                const std::vector<std::vector<transition_override>> hyps{
                    all[i], all[j]};
                for (const std::size_t cap : {std::size_t{100}, std::size_t{7}})
                    expect_engine_matches_reference(sys, ctx.discrim(), hyps,
                                                    cap);
                const auto seq = ctx.discrim().splitting_sequence(hyps, 100);
                deep += seq && seq->size() > 1;
                exhausted += !seq;
                ++checked;
            }
        }
        for (std::size_t i = 0; i + 6 < all.size(); i += stride / 2) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", triple from " +
                         std::to_string(i));
            expect_engine_matches_reference(
                sys, ctx.discrim(), {all[i], all[i + 3], all[i + 6]}, 100);
        }
    }
    EXPECT_GT(checked, 100u);
    EXPECT_GT(deep, 0u);
    EXPECT_GT(exhausted, 0u);
}

TEST(discrim_engine, returned_sequences_actually_split) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto all = fault_hypotheses(ex.spec);

    std::size_t sequences = 0;
    for (std::size_t i = 0; i < all.size(); i += 2) {
        for (std::size_t j = i + 1; j < all.size(); j += 4) {
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[j]};
            const auto seq =
                ctx.discrim().splitting_sequence(hyps, 100'000);
            if (!seq) continue;
            ++sequences;
            SCOPED_TRACE("pair " + std::to_string(i) + "," +
                         std::to_string(j));
            // A returned sequence must produce at least two distinct
            // predictions among the hypotheses (here: exactly two, so
            // they must disagree).
            std::vector<std::vector<observation>> predicted;
            for (const auto& ovs : hyps) {
                simulator sim(ex.spec, ovs);
                std::vector<observation> obs;
                for (const global_input& in : *seq)
                    obs.push_back(sim.apply(in));
                predicted.push_back(std::move(obs));
            }
            EXPECT_NE(predicted[0], predicted[1]);
        }
    }
    // The paper example has plenty of distinguishable fault pairs; if no
    // sequence came back the test checked nothing.
    EXPECT_GT(sequences, 10u);
}

TEST(discrim_engine, diagnose_identical_flat_vs_reference_paper) {
    // Every Figure-1 fault under the Table-1 suite, with structured Step 6
    // proposals and with the joint search alone: the engine's proposal
    // cache, replay cache and memoized search against the reference oracle.
    const auto ex = paperex::make_paper_example();
    const spec_context ctx(ex.spec, ex.suite);
    for (const bool structured : {true, false}) {
        diagnoser_options options;
        options.structured_step6 = structured;
        std::size_t tests = 0;
        for (const auto& fault : enumerate_all_faults(ex.spec)) {
            SCOPED_TRACE(describe(ex.spec, fault) + ", structured " +
                         std::to_string(structured));
            simulated_iut iut(ex.spec, fault);
            const auto r = diagnose(ctx, iut, options);
            tests += r.additional_tests.size();
            ref_oracle::expect_diagnosis_matches(ex.spec, ex.suite, r,
                                                 options);
        }
        EXPECT_GT(tests, 0u) << "no Step 6 test was checked";
    }
}

TEST(discrim_engine, campaign_entries_identical_across_all_configurations) {
    rng random(42);
    random_system_options opts;
    opts.machines = 2;
    opts.states_per_machine = 3;
    opts.extra_transitions = 5;
    const cfsmdiag::system sys = random_system(opts, random);
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > 40) faults.resize(40);

    // Structured Step 6 and the joint search alone, each at jobs 1 and 2,
    // on a cold context and then warm (its memo and caches filled by the
    // first run).
    for (const bool structured : {true, false}) {
        campaign_options base;
        base.diag.structured_step6 = structured;
        campaign_engine baseline_engine(sys, suite, faults, base);
        const auto baseline = baseline_engine.run().entries;
        ref_oracle::expect_entries_match(sys, suite, faults, baseline,
                                         base.diag);
        if (!structured) {
            EXPECT_GT(baseline_engine.metrics().discrim_memo_misses, 0u)
                << "no joint search ran";
        }
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
            campaign_options o = base;
            o.jobs = jobs;
            const spec_context ctx(sys, suite);
            campaign_engine e(ctx, faults, o);
            for (const char* context : {"cold", "warm"}) {
                const auto& entries = e.run().entries;
                ASSERT_EQ(entries.size(), baseline.size());
                for (std::size_t i = 0; i < entries.size(); ++i) {
                    SCOPED_TRACE(std::string(context) + ", jobs " +
                                 std::to_string(jobs) + ", structured " +
                                 std::to_string(structured) + ", fault #" +
                                 std::to_string(i) + ": " +
                                 describe(sys, entries[i].fault));
                    EXPECT_EQ(entries[i], baseline[i]);
                }
            }
        }
    }
}

TEST(discrim_engine, memo_counters_deterministic_across_jobs) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    auto faults = enumerate_all_faults(ex.spec);
    if (faults.size() > 60) faults.resize(60);

    campaign_metrics first;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
        campaign_options o;
        o.jobs = jobs;
        // Fresh context per run: the sharded memo computes under its lock,
        // so hit/miss totals depend only on the workload, not the worker
        // interleaving.
        campaign_engine e(ex.spec, suite, faults, o);
        (void)e.run();
        if (jobs == 1) {
            first = e.metrics();
            EXPECT_GT(first.discrim_memo_hits + first.discrim_memo_misses,
                      0u);
        } else {
            EXPECT_EQ(e.metrics().discrim_memo_hits,
                      first.discrim_memo_hits);
            EXPECT_EQ(e.metrics().discrim_memo_misses,
                      first.discrim_memo_misses);
            EXPECT_EQ(e.metrics().discrim_joint_states,
                      first.discrim_joint_states);
            EXPECT_EQ(e.metrics().discrim_bfs_searches,
                      first.discrim_bfs_searches);
        }
    }
}

TEST(discrim_engine, malformed_override_error_parity) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto faults = enumerate_all_faults(ex.spec);
    ASSERT_GE(faults.size(), 2u);

    // Two overrides of the same transition in one hypothesis: the
    // simulator rejects this at construction, and the engine must surface
    // the identical error even though its flat path never builds one.
    const transition_override dup = faults[0].to_override();
    const std::vector<std::vector<transition_override>> hyps{
        {dup, dup}, {faults[1].to_override()}};
    std::string ref_msg;
    try {
        (void)ref_oracle::splitting_sequence(ex.spec, hyps, 1000);
        FAIL() << "reference search accepted duplicate targets";
    } catch (const error& e) {
        ref_msg = e.what();
    }
    try {
        (void)ctx.discrim().splitting_sequence(hyps, 1000);
        FAIL() << "engine accepted duplicate targets";
    } catch (const error& e) {
        EXPECT_EQ(ref_msg, std::string(e.what()));
    }
}

/// Whether two of `alive` predict different outputs for `inputs`, by the
/// reference simulator.
bool reference_splits(const cfsmdiag::system& spec,
                      const std::vector<diagnosis>& alive,
                      const std::vector<global_input>& inputs) {
    for (std::size_t i = 1; i < alive.size(); ++i) {
        if (observe(spec, inputs, alive[i].to_override()) !=
            observe(spec, inputs, alive[0].to_override()))
            return true;
    }
    return false;
}

TEST(discrim_engine, structured_proposals_and_replays_match_uncached) {
    // The applied-test cache: on every live set a sliding_window(4)
    // campaign reaches, the cached test is the first propose_structured_tests
    // proposal that splits the set, or there is none.
    const cfsmdiag::system spec = models::sliding_window(4);
    const spec_context ctx(spec, transition_tour(spec).suite);
    const discrim_engine& engine = ctx.discrim();
    const step6_options options;
    std::set<std::vector<diagnosis>> seen;
    std::size_t with_test = 0;
    const auto expect_first_splitting = [&](const std::vector<diagnosis>&
                                                live) {
        if (live.size() < 2 || !seen.insert(live).second) return;
        const proposed_test* cached = engine.structured_test(live, options);
        EXPECT_EQ(cached, engine.structured_test(live, options));
        const auto fresh = propose_structured_tests(spec, live, options);
        const auto first = std::find_if(
            fresh.begin(), fresh.end(), [&](const proposed_test& p) {
                return reference_splits(spec, live, p.tc.inputs);
            });
        if (first == fresh.end()) {
            EXPECT_EQ(cached, nullptr);
            return;
        }
        ++with_test;
        ASSERT_NE(cached, nullptr);
        EXPECT_EQ(cached->tc.inputs, first->tc.inputs);
        EXPECT_EQ(cached->tc.name, first->tc.name);
        EXPECT_EQ(cached->suspect, first->suspect);
        EXPECT_EQ(cached->purpose, first->purpose);
    };
    for (const auto& fault : enumerate_all_faults(spec)) {
        SCOPED_TRACE(describe(spec, fault));
        simulated_iut iut(spec, fault);
        const diagnosis_result r = diagnose(ctx, iut);
        // Step 6 starts a round from the initial set and from the set each
        // applied test leaves.
        hypothesis_tracker tracker(engine, r.initial_diagnoses);
        expect_first_splitting(tracker.alive());
        for (const additional_test_record& rec : r.additional_tests) {
            if (rec.quarantined) continue;
            (void)tracker.apply_result(rec.tc.inputs, rec.observed);
            expect_first_splitting(tracker.alive());
        }
        EXPECT_EQ(tracker.alive(), r.final_diagnoses);
    }
    EXPECT_GT(with_test, 0u);
    EXPECT_GT(seen.size(), with_test);

    // Cached flat replays predict exactly like the reference replay.
    const auto ex = paperex::make_paper_example();
    const spec_context paper_ctx(ex.spec, transition_tour(ex.spec).suite);
    simulated_iut paper_iut(ex.spec, ex.fault);
    const auto result = diagnose(ex.spec, ex.suite, paper_iut);
    const auto live = ref_oracle::live_set(result.initial_diagnoses);
    ASSERT_GE(live.size(), 2u);
    const proposed_test* test = paper_ctx.discrim().structured_test(live, {});
    ASSERT_NE(test, nullptr);
    const auto& inputs = test->tc.inputs;
    const auto rep = paper_ctx.discrim().replay_for(inputs);
    const ref_oracle::sequence_replay direct(ex.spec, inputs);
    for (const auto& d : result.initial_diagnoses) {
        std::vector<std::uint64_t> want;
        for (const observation& o : direct.predict(d.to_override()))
            want.push_back(pack_observation(o));
        EXPECT_EQ(rep->predict(d.to_override()), want);
    }
    EXPECT_EQ(rep->expected(), observe(ex.spec, inputs));
    EXPECT_EQ(rep.get(), paper_ctx.discrim().replay_for(inputs).get());
}

/// Two machines whose spec chain throws: after `x`, `go` at A sends `msg`
/// to B, and B's b1 then sends ε to A (`epsilon`), or sends `back`, which
/// A's a2 answers with `msg` again (`cycle`, past the hop budget).  In
/// `diverted`, b1 sends ε too, but A may also send `msg2`, which B answers
/// at its port: a hypothesis on a1 that sends `msg2` fires its target and
/// then never reaches b1, while the spec chain throws.
cfsmdiag::system make_throwing_chain_system(const std::string& variant) {
    symbol_table symbols;
    fsm_builder a("A", symbols);
    a.external("a0", "s0", "x", "y", "s1");
    a.internal("a1", "s1", "go", "msg", "s1", machine_id{1});
    a.internal("a2", "s1", "back", "msg", "s1", machine_id{1});
    if (variant == "diverted")
        a.internal("a3", "s1", "go2", "msg2", "s0", machine_id{1});
    fsm_builder b("B", symbols);
    b.external("b0", "q0", "z", "w", "q0");
    b.internal("b1", "q0", "msg", variant == "cycle" ? "back" : "-", "q0",
               machine_id{0});
    if (variant == "diverted") b.external("b2", "q0", "msg2", "ok", "q0");
    std::vector<fsm> machines;
    machines.push_back(a.build("s0"));
    machines.push_back(b.build("q0"));
    return cfsmdiag::system(variant, std::move(symbols), std::move(machines));
}

TEST(discrim_engine, throwing_spec_chains_match_the_reference) {
    // Every pair and triple of the fault hypotheses (and the spec), at a
    // small cap and the default one: the same sequence, or the same error
    // type and message, as the reference search that steps the spec
    // before every hypothesis.
    for (const std::string variant : {"epsilon", "cycle", "diverted"}) {
        SCOPED_TRACE(variant);
        const cfsmdiag::system sys = make_throwing_chain_system(variant);
        const spec_context ctx(sys, {});
        const auto all = fault_hypotheses(sys);
        std::size_t threw = 0;
        for (std::size_t i = 0; i < all.size(); ++i) {
            for (std::size_t j = i + 1; j < all.size(); ++j) {
                SCOPED_TRACE("pair " + std::to_string(i) + "," +
                             std::to_string(j));
                for (const std::size_t cap :
                     {std::size_t{7}, std::size_t{100'000}})
                    expect_engine_matches_reference(
                        sys, ctx.discrim(), {all[i], all[j]}, cap);
                try {
                    (void)ref_oracle::splitting_sequence(
                        sys, {all[i], all[j]}, 100'000);
                } catch (const error&) {
                    ++threw;
                }
                for (std::size_t k = j + 1; k < all.size(); ++k) {
                    SCOPED_TRACE("triple with " + std::to_string(k));
                    for (const std::size_t cap :
                         {std::size_t{7}, std::size_t{100'000}})
                        expect_engine_matches_reference(
                            sys, ctx.discrim(), {all[i], all[j], all[k]},
                            cap);
                }
            }
        }
        EXPECT_GT(threw, 0u) << "no search reached the throwing chain";
    }
}

}  // namespace
}  // namespace cfsmdiag
