// The flat discrimination engine (diag/discrim_engine.hpp): result identity
// with the reference joint search — per splitting-sequence call (memo miss
// and memo hit) and through the full diagnose()/run_campaign() pipeline
// against the reference oracle (tests/reference_oracle.hpp), at jobs 1 and
// 2 on cold and warm contexts — the property that every returned sequence
// actually splits its hypothesis set, error parity on malformed overrides,
// and determinism of the memo counters at any job count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cfsmdiag.hpp"
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
        ref = splitting_sequence(spec, hyps, cap);
    } catch (const error& e) {
        ref_threw = true;
        ref_msg = e.what();
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
            flat_msg = e.what();
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
    ASSERT_TRUE(ctx.discrim().flat_search_available());
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
            EXPECT_EQ(e.metrics().discrim_table_answers,
                      first.discrim_table_answers);
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
        (void)splitting_sequence(ex.spec, hyps, 1000);
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

TEST(discrim_engine, structured_proposals_and_replays_match_uncached) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);

    // A live set with more than one hypothesis, as Step 6 would hold it.
    simulated_iut iut(ex.spec, ex.fault);
    const auto result = diagnose(ex.spec, ex.suite, iut);
    ASSERT_FALSE(result.initial_diagnoses.empty());
    hypothesis_tracker tracker(ex.spec, result.initial_diagnoses);

    const auto cached = ctx.discrim().structured_proposals(tracker, {});
    const auto fresh = propose_structured_tests(ex.spec, tracker, {});
    ASSERT_EQ(cached->size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*cached)[i].tc.inputs, fresh[i].tc.inputs);
        EXPECT_EQ((*cached)[i].suspect, fresh[i].suspect);
        EXPECT_EQ((*cached)[i].purpose, fresh[i].purpose);
    }
    // Second lookup returns the same shared derivation.
    EXPECT_EQ(cached.get(),
              ctx.discrim().structured_proposals(tracker, {}).get());

    // Cached spec replays predict exactly like freshly-built ones.
    if (!fresh.empty()) {
        const auto& inputs = fresh.front().tc.inputs;
        const auto rep = ctx.discrim().replay_for(inputs);
        const sequence_replay direct(ex.spec, inputs);
        for (const auto& d : result.initial_diagnoses) {
            EXPECT_EQ(rep->predict(d.to_override()),
                      direct.predict(d.to_override()));
        }
        EXPECT_EQ(rep.get(), ctx.discrim().replay_for(inputs).get());
    }
}

}  // namespace
}  // namespace cfsmdiag
