// Step 5B and Step 6 on the compiled tables against the reference replay:
// flat_replayer (with and without the fault dictionary, one override or
// several) and the flat Step 6 replay (flat_sequence) against the oracle's
// replay_cache, sequence_replay and full replay from reset, and — the
// load-bearing contract — diagnose()/run_campaign() results equal to the
// reference oracle (tests/reference_oracle.hpp), on the paper example,
// across random systems, and on a system whose packed states take two
// words.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "cfsmdiag.hpp"
#include "helpers.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::make_ping_pong_system;
using testing_helpers::quarantine_first_symptomatic;

struct paper_fixture {
    paperex::paper_example ex;
    symptom_report report;

    static paper_fixture make() {
        paper_fixture fx{paperex::make_paper_example(), {}};
        simulated_iut iut(fx.ex.spec, fx.ex.fault);
        fx.report = collect_symptoms(fx.ex.spec, fx.ex.suite, iut);
        return fx;
    }
};

/// First step of `trace` whose fired list contains `t`, if any.
std::optional<std::size_t> first_fired_step(
    const std::vector<trace_step>& trace, global_transition_id t) {
    for (std::size_t step = 0; step < trace.size(); ++step) {
        for (global_transition_id g : trace[step].fired) {
            if (g == t) return step;
        }
    }
    return std::nullopt;
}

/// The first firing of `t` in `ct`, if any.
std::optional<std::size_t> first_fire(const compiled_spec& cs,
                                      const compiled_spec::case_tables& ct,
                                      global_transition_id t) {
    const std::uint32_t f = ct.first_fire[cs.dense_id(t)];
    if (f == invalid_index) return std::nullopt;
    return f;
}

TEST(replay_cache, firing_index_matches_spec_trace) {
    // The firing index of the suite's compiled tables, of a flat replay of
    // each case, and of the oracle's replay cache.
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const compiled_spec& cs = ctx.compiled();
    const auto cache = ref_oracle::make_replay_cache(ctx, fx.report);
    ASSERT_EQ(cache.case_count(), fx.ex.suite.cases.size());

    for (std::size_t ci = 0; ci < fx.ex.suite.cases.size(); ++ci) {
        const auto& inputs = fx.ex.suite.cases[ci].inputs;
        const auto trace = explain(fx.ex.spec, inputs);
        const flat_sequence seq(cs, fx.ex.spec, inputs);
        EXPECT_EQ(seq.expected(), observe(fx.ex.spec, inputs));
        for (global_transition_id t : fx.ex.spec.all_transitions()) {
            SCOPED_TRACE("case " + std::to_string(ci) + ", " +
                         fx.ex.spec.transition_label(t));
            const auto want = first_fired_step(trace, t);
            EXPECT_EQ(first_fire(cs, cs.cases[ci], t), want);
            EXPECT_EQ(first_fire(cs, seq.tables(), t), want);
            EXPECT_EQ(cache.first_firing(ci, t), want);
        }
    }
}

TEST(replay_cache, snapshot_restore_reproduces_spec_suffix) {
    // The packed state a flat replay keeps before each firing restores the
    // spec run: replaying the suffix from it on the plain spec reproduces
    // the expected outputs exactly (and so does the oracle's snapshot).
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const compiled_spec& cs = ctx.compiled();
    const auto cache = ref_oracle::make_replay_cache(ctx, fx.report);

    simulator sim(fx.ex.spec);
    for (std::size_t ci = 0; ci < fx.ex.suite.cases.size(); ++ci) {
        const auto& inputs = fx.ex.suite.cases[ci].inputs;
        const auto trace = explain(fx.ex.spec, inputs);
        const flat_sequence seq(cs, fx.ex.spec, inputs);
        for (global_transition_id t : fx.ex.spec.all_transitions()) {
            const auto f = first_fire(cs, seq.tables(), t);
            if (!f) continue;
            SCOPED_TRACE("case " + std::to_string(ci) + ", " +
                         fx.ex.spec.transition_label(t));
            const system_state packed =
                cs.unpack(seq.tables().state_before.data() + *f * cs.words);
            EXPECT_EQ(packed, cache.snapshot(ci, t));
            sim.set_state(packed);
            for (std::size_t step = *f; step < inputs.size(); ++step)
                EXPECT_EQ(sim.apply(inputs[step]), trace[step].expected);
        }
    }
}

/// The fault-dictionary slot of a fault of the single-transition universe.
std::uint32_t slot_of(const compiled_spec& cs,
                      const single_transition_fault& f) {
    const std::uint32_t d = cs.dense_id(f.target);
    if (!f.faulty_output) return cs.transfer_slot(d, f.faulty_next->value);
    const symbol* pool = cs.pool_syms.data() + cs.pool_offset[d];
    const symbol* pool_end = cs.pool_syms.data() + cs.pool_offset[d + 1];
    const auto j = static_cast<std::uint32_t>(
        std::find(pool, pool_end, *f.faulty_output) - pool);
    return cs.output_slot(d, j,
                          f.faulty_next ? f.faulty_next->value
                                        : invalid_index);
}

/// A check's verdict, or what it threw.
template <class Check>
std::string outcome(Check&& check) {
    try {
        return check() ? "consistent" : "refuted";
    } catch (const error& e) {
        return std::string("threw: ") + e.what();
    }
}

/// The slots a flat_replayer with the context's fault dictionary flags on
/// `report`, against a replay of every hypothesis of the universe: the
/// flagged slots are askable, ascending and distinct, and every hypothesis
/// whose slot is not flagged is refuted by its replay.  With `oracle`, the
/// replay is held to the uncached hypothesis_consistent too.  Returns how
/// many replays threw.
std::size_t expect_dictionary_identity(const spec_context& ctx,
                                       const symptom_report& report,
                                       bool oracle) {
    const system& spec = ctx.spec();
    flat_replayer plain(ctx.compiled(), spec, report);
    const flat_replayer fast(ctx.compiled(), spec, report, ctx.dictionary());
    const bool trusted = report.quarantined_cases.empty();
    EXPECT_EQ(fast.flagged() != nullptr, trusted);
    const std::vector<std::uint32_t> none;
    const std::vector<std::uint32_t>& flagged =
        fast.flagged() ? *fast.flagged() : none;
    EXPECT_TRUE(std::adjacent_find(flagged.begin(), flagged.end(),
                                   std::greater_equal<>()) == flagged.end());
    std::vector<std::uint32_t> askable;
    std::size_t threw = 0;
    for (const auto& h : enumerate_all_faults(spec)) {
        const transition_override ov = h.to_override();
        const std::uint32_t slot = slot_of(ctx.compiled(), h);
        askable.push_back(slot);
        const std::string expected =
            outcome([&] { return plain.matches(ov); });
        if (trusted &&
            !std::binary_search(flagged.begin(), flagged.end(), slot)) {
            EXPECT_EQ(expected, "refuted") << describe(spec, h);
        }
        if (oracle) {
            EXPECT_EQ(outcome([&] {
                          return ref_oracle::hypothesis_consistent(
                              spec, ctx.suite(), report, ov);
                      }),
                      expected)
                << describe(spec, h);
        }
        threw += expected.starts_with("threw");
    }
    std::sort(askable.begin(), askable.end());
    EXPECT_TRUE(std::includes(askable.begin(), askable.end(), flagged.begin(),
                              flagged.end()));
    return threw;
}

TEST(replay_cache, verdict_equals_legacy_for_every_enumerated_fault) {
    // The cache and its compiled twin, flat_replayer, against the uncached
    // full replay.
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const auto cache = ref_oracle::make_replay_cache(ctx, fx.report);
    flat_replayer flat(ctx.compiled(), fx.ex.spec, fx.report);

    for (const auto& fault : enumerate_all_faults(fx.ex.spec)) {
        const transition_override ov = fault.to_override();
        SCOPED_TRACE(describe(fx.ex.spec, fault));
        const bool uncached = ref_oracle::hypothesis_consistent(
            fx.ex.spec, fx.ex.suite, fx.report, ov, nullptr);
        EXPECT_EQ(cache.consistent(ov), uncached);
        EXPECT_EQ(flat.matches(ov), uncached);
    }

    // The fault dictionary: every hypothesis flat_replayer does not flag
    // must be refuted by its replay, on every report of a zoo model and of
    // 20 random systems and every hypothesis of the universe; every 7th
    // report also against the uncached replay.  Then sampled reports of a
    // two-word system.
    ctx.build_dictionary();
    ASSERT_NE(ctx.dictionary(), nullptr);
    expect_dictionary_identity(ctx, fx.report, true);

    const system zoo = models::sliding_window(4);
    const spec_context zoo_ctx(zoo, transition_tour(zoo).suite);
    zoo_ctx.build_dictionary();
    const auto zoo_faults = enumerate_all_faults(zoo);
    for (std::size_t i = 0; i < zoo_faults.size(); ++i) {
        SCOPED_TRACE("sliding_window(4), IUT " +
                     describe(zoo, zoo_faults[i]));
        simulated_iut iut(zoo, zoo_faults[i]);
        const symptom_report report = collect_symptoms(
            zoo, zoo_ctx.suite(), iut, zoo_ctx.traces());
        expect_dictionary_identity(zoo_ctx, report, i % 7 == 0);
    }

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        const system sys = random_system(opts, random);
        test_suite suite = transition_tour(sys).suite;
        rng walk(seed + 1000);
        suite.extend(random_walk_suite(
            sys, walk, {.cases = 2, .steps_per_case = 8}));
        const spec_context rctx(sys, suite);
        rctx.build_dictionary();
        const auto faults = enumerate_all_faults(sys);
        for (std::size_t i = 0; i < faults.size(); ++i) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", IUT " +
                         describe(sys, faults[i]));
            simulated_iut iut(sys, faults[i]);
            const symptom_report report =
                collect_symptoms(sys, suite, iut, rctx.traces());
            expect_dictionary_identity(rctx, report, i % 7 == 0);
            // A quarantined case's positions are in every signature, so
            // the dictionary must stand aside for such a report (one that
            // keeps a trusted symptom, so it would still reach Step 5B).
            if (report.symptomatic_cases.size() > 1)
                expect_dictionary_identity(
                    rctx, quarantine_first_symptomatic(report), i % 7 == 0);
        }
    }

    // Two-word states: token_ring(65) on the runtime-width kernels, every
    // hypothesis of the universe against the uncached replay too.
    const system ring = models::token_ring(65);
    const spec_context ring_ctx(ring, transition_tour(ring).suite);
    ASSERT_EQ(ring_ctx.compiled().words, 2u);
    ring_ctx.build_dictionary();
    const auto ring_faults = enumerate_all_faults(ring);
    for (std::size_t i = 0; i < ring_faults.size(); i += 97) {
        SCOPED_TRACE("token_ring(65), IUT " + describe(ring, ring_faults[i]));
        simulated_iut iut(ring, ring_faults[i]);
        const symptom_report report = collect_symptoms(
            ring, ring_ctx.suite(), iut, ring_ctx.traces());
        expect_dictionary_identity(ring_ctx, report, true);
    }

    // A hypothesis whose chain exceeds the hop budget has no signature;
    // both paths then throw, or refute before the throwing step, alike.
    const system pp = make_ping_pong_system();
    const auto at = [&](std::size_t m, const char* sym) {
        return global_input::at(machine_id{static_cast<std::uint32_t>(m)},
                                pp.symbols().lookup(sym));
    };
    test_suite pp_suite;
    pp_suite.add(test_case::from_inputs(
        "t1", {at(0, "go"), at(1, "p"), at(0, "go")}));
    pp_suite.add(test_case::from_inputs("t2", {at(1, "p"), at(0, "go")}));
    const spec_context pp_ctx(pp, pp_suite);
    pp_ctx.build_dictionary();
    const single_transition_fault livelock{
        {machine_id{1}, transition_id{0}}, std::nullopt, state_id{1}};
    EXPECT_EQ(pp_ctx.dictionary()->signature[slot_of(pp_ctx.compiled(),
                                                     livelock)],
              fault_dictionary::no_signature);
    std::size_t threw = 0;
    for (const auto& fault : enumerate_all_faults(pp)) {
        SCOPED_TRACE("ping_pong, IUT " + describe(pp, fault));
        simulated_iut iut(pp, fault);
        symptom_report report;
        try {
            report = collect_symptoms(pp, pp_suite, iut, pp_ctx.traces());
        } catch (const budget_exceeded&) {
            continue;  // the IUT itself livelocks
        }
        threw += expect_dictionary_identity(pp_ctx, report, true);
    }
    EXPECT_GT(threw, 0u);
}

/// flat_replayer's multi-override check on `report` against the oracle's
/// replay cache and a full observe_multi replay of every trusted case, for
/// pairs of faults on distinct transitions (every `stride`-th pair, at most
/// `limit`).  Returns the pairs checked.
std::size_t expect_multi_override_identity(const spec_context& ctx,
                                           const symptom_report& report,
                                           std::size_t stride,
                                           std::size_t limit) {
    const system& spec = ctx.spec();
    const auto cache = ref_oracle::make_replay_cache(ctx, report);
    flat_replayer flat(ctx.compiled(), spec, report);
    const auto faults = enumerate_all_faults(spec);
    std::size_t checked = 0, k = 0;
    for (std::size_t i = 0; i < faults.size() && checked < limit; ++i) {
        for (std::size_t j = i + 1; j < faults.size() && checked < limit;
             ++j) {
            if (faults[i].target == faults[j].target) continue;
            if (k++ % stride != 0) continue;
            const std::vector<transition_override> ovs{
                faults[i].to_override(), faults[j].to_override()};
            bool full = true;
            for (std::size_t ci = 0; full && ci < ctx.suite().cases.size();
                 ++ci) {
                if (report.runs[ci].quarantined) continue;
                full = observe_multi(spec, ctx.suite().cases[ci].inputs,
                                     ovs) == report.runs[ci].observed;
            }
            SCOPED_TRACE(describe(spec, faults[i]) + " + " +
                         describe(spec, faults[j]));
            EXPECT_EQ(cache.consistent(ovs), full);
            EXPECT_EQ(flat.consistent(ovs), full);
            ++checked;
        }
    }
    return checked;
}

TEST(replay_cache, multi_override_verdict_equals_full_replay) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    EXPECT_GT(expect_multi_override_identity(ctx, fx.report, 5, 2000), 0u);

    // The reports of double faults of a zoo model, and of a two-word ring.
    for (const system& spec :
         {models::sliding_window(3), models::token_ring(65)}) {
        SCOPED_TRACE(spec.name());
        const spec_context zctx(spec, transition_tour(spec).suite);
        const auto faults = enumerate_all_faults(spec);
        for (std::size_t i = 0; i + 1 < faults.size(); i += 61) {
            const std::size_t j = (i * 7 + 13) % faults.size();
            if (faults[i].target == faults[j].target) continue;
            simulated_multi_iut iut(spec, {{faults[i], faults[j]}});
            const symptom_report report =
                collect_symptoms(spec, zctx.suite(), iut, zctx.traces());
            expect_multi_override_identity(zctx, report, 97, 60);
        }
    }
}

/// The observations of `ov` as flat_sequence::predict packs them.
std::vector<std::uint64_t> packed(const std::vector<observation>& obs) {
    std::vector<std::uint64_t> out;
    for (const observation& o : obs) out.push_back(pack_observation(o));
    return out;
}

/// The flat replay of every test proposed for, or applied to, the live set
/// of each diagnosed fault of `spec` (every `stride`-th), against observe()
/// and the oracle's sequence_replay, on every hypothesis of that live set:
/// predict(), and matches() against the hypothesis's own observations, the
/// spec's and the IUT's.  Returns the (test, hypothesis) pairs checked.
std::size_t expect_flat_sequence_identity(const system& spec,
                                          const test_suite& suite,
                                          std::size_t stride,
                                          const diagnoser_options& o = {}) {
    const spec_context ctx(spec, suite);
    const auto faults = enumerate_all_faults(spec);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < faults.size(); i += stride) {
        simulated_iut iut(spec, faults[i]);
        const diagnosis_result r = diagnose(ctx, iut, o);
        if (r.initial_diagnoses.size() < 2) continue;
        SCOPED_TRACE("IUT " + describe(spec, faults[i]));
        std::vector<std::vector<global_input>> tests;
        for (const proposed_test& p :
             propose_structured_tests(spec, r.initial_diagnoses, o.step6))
            tests.push_back(p.tc.inputs);
        for (const additional_test_record& rec : r.additional_tests)
            tests.push_back(rec.tc.inputs);
        for (const auto& inputs : tests) {
            const flat_sequence seq(ctx.compiled(), spec, inputs);
            const ref_oracle::sequence_replay ref(spec, inputs);
            const auto spec_obs = observe(spec, inputs);
            EXPECT_EQ(seq.expected(), spec_obs);
            const auto iut_obs = iut.execute(inputs);
            flat_replayer against_spec(seq, packed(spec_obs));
            flat_replayer against_iut(seq, packed(iut_obs));
            for (const diagnosis& d : r.initial_diagnoses) {
                const transition_override ov = d.to_override();
                const auto plain = observe(spec, inputs, ov);
                SCOPED_TRACE(describe(spec, d));
                EXPECT_EQ(seq.predict(ov), packed(plain));
                EXPECT_EQ(ref.predict(ov), plain);
                flat_replayer own(seq, packed(plain));
                EXPECT_TRUE(own.matches(ov));
                EXPECT_EQ(against_spec.matches(ov), plain == spec_obs);
                EXPECT_EQ(against_iut.matches(ov), plain == iut_obs);
                EXPECT_EQ(ref.matches(ov, iut_obs), plain == iut_obs);
                ++checked;
            }
        }
    }
    return checked;
}

TEST(flat_sequence, predict_and_matches_equal_plain_observe) {
    const auto ex = paperex::make_paper_example();
    EXPECT_GT(expect_flat_sequence_identity(ex.spec, ex.suite, 1), 0u);
    const system zoo = models::sliding_window(4);
    EXPECT_GT(expect_flat_sequence_identity(zoo, transition_tour(zoo).suite,
                                            3),
              0u);
    std::size_t one_word = 0, two_words = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        if (seed % 2 == 1) {
            const system sys = random_system({}, random);
            one_word += expect_flat_sequence_identity(
                sys, transition_tour(sys).suite, 5);
            continue;
        }
        // Two words: 22 machines of 8 states.  Their global state spaces
        // are huge, so a short random walk is the suite and Step 6's
        // searches run under small caps.
        random_system_options opts;
        opts.machines = 22;
        opts.states_per_machine = 8;
        opts.extra_transitions = 3;
        const system sys = random_system(opts, random);
        rng walk(seed + 1000);
        const test_suite suite = random_walk_suite(
            sys, walk, {.cases = 2, .steps_per_case = 12});
        ASSERT_EQ(spec_context(sys, suite).compiled().words, 2u);
        diagnoser_options capped;
        capped.max_joint_states = 100;
        capped.step6.search.max_states = 500;
        two_words += expect_flat_sequence_identity(sys, suite, 37, capped);
    }
    EXPECT_GT(one_word, 0u);
    EXPECT_GT(two_words, 0u);
}

TEST(replay_cache, diagnose_identical_with_cache_on_and_off_paper) {
    // Cached production path vs the uncached oracle, every Figure-1 fault
    // under the Table-1 suite.
    const auto ex = paperex::make_paper_example();
    for (const auto& fault : enumerate_all_faults(ex.spec)) {
        SCOPED_TRACE(describe(ex.spec, fault));
        simulated_iut iut(ex.spec, fault);
        ref_oracle::expect_diagnosis_matches(
            ex.spec, ex.suite, diagnose(ex.spec, ex.suite, iut));
    }
}

TEST(replay_cache, diagnose_identical_both_evaluation_modes) {
    // The paper's flag routing (with its escalations) and the complete
    // evaluation, each against the oracle on every Figure-1 fault.
    const auto ex = paperex::make_paper_example();
    for (const auto mode : {evaluation_mode::paper_flag_routing,
                            evaluation_mode::complete}) {
        diagnoser_options options;
        options.evaluation = mode;
        for (const auto& fault : enumerate_all_faults(ex.spec)) {
            SCOPED_TRACE(describe(ex.spec, fault) + ", mode " +
                         std::to_string(static_cast<int>(mode)));
            simulated_iut iut(ex.spec, fault);
            ref_oracle::expect_diagnosis_matches(
                ex.spec, ex.suite, diagnose(ex.spec, ex.suite, iut, options),
                options);
        }
    }
}

TEST(replay_cache, randomized_diagnose_equivalence_20_systems) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        const system sys = random_system(opts, random);
        test_suite suite = transition_tour(sys).suite;
        rng walk(seed + 1000);
        suite.extend(random_walk_suite(
            sys, walk, {.cases = 2, .steps_per_case = 8}));
        const spec_context ctx(sys, suite);

        auto faults = enumerate_all_faults(sys);
        // Every 5th fault keeps the test fast while covering output,
        // transfer and both-fault kinds across all machines.
        for (std::size_t i = 0; i < faults.size(); i += 5) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         describe(sys, faults[i]));
            simulated_iut iut(sys, faults[i]);
            ref_oracle::expect_diagnosis_matches(sys, suite,
                                                    diagnose(ctx, iut));
        }
    }
}

TEST(replay_cache, campaign_entries_identical_with_cache_on_and_off) {
    rng random(42);
    random_system_options opts;
    opts.machines = 2;
    opts.states_per_machine = 3;
    opts.extra_transitions = 5;
    const system sys = random_system(opts, random);
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > 40) faults.resize(40);

    campaign_engine engine(sys, suite, faults, {});
    const campaign_stats& stats = engine.run();
    ref_oracle::expect_entries_match(sys, suite, faults, stats.entries);
    // The cache must actually engage on any campaign with detected faults.
    if (stats.detected > 0) {
        EXPECT_GT(engine.metrics().cache_case_skips +
                      engine.metrics().cache_suffix_replays,
                  0u);
    }
}

/// Fault set with its members sorted, so sets compare by content.
fault_set canonical(fault_set fs) {
    std::sort(fs.faults.begin(), fs.faults.end());
    return fs;
}

TEST(replay_cache, multi_fault_diagnosis_identical_with_cache_on_and_off) {
    const auto ex = paperex::make_paper_example();
    // The paper's transfer fault plus a second fault on another transition.
    const auto all = enumerate_all_faults(ex.spec);
    const auto second =
        std::find_if(all.begin(), all.end(),
                     [&](const single_transition_fault& f) {
                         return f.target != ex.fault.target;
                     });
    ASSERT_NE(second, all.end());
    const fault_set fs{{ex.fault, *second}};

    multi_fault_options options;
    options.max_hypotheses = 3000;
    options.max_additional_tests = 10;
    simulated_multi_iut iut(ex.spec, fs);
    const auto result = diagnose_multi(ex.spec, ex.suite, iut, options);
    ASSERT_FALSE(result.truncated_hypotheses);

    // The oracle's initial hypothesis set: every single fault and every
    // pair on distinct transitions that a plain simulator run of the suite
    // finds consistent.
    simulated_multi_iut suite_iut(ex.spec, fs);
    const symptom_report report =
        collect_symptoms(ex.spec, ex.suite, suite_iut);
    const auto consistent = [&](const fault_set& h) {
        simulator sim(ex.spec, h.to_overrides());
        for (std::size_t ci = 0; ci < ex.suite.cases.size(); ++ci) {
            if (sim.run_from_reset(ex.suite.cases[ci].inputs) !=
                report.runs[ci].observed)
                return false;
        }
        return true;
    };
    std::set<fault_set> alive;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (consistent({{all[i]}})) alive.insert({{all[i]}});
        for (std::size_t j = i + 1; j < all.size(); ++j) {
            if (all[i].target == all[j].target) continue;
            const fault_set pair = canonical({{all[i], all[j]}});
            if (consistent(pair)) alive.insert(pair);
        }
    }
    EXPECT_EQ(result.initial_hypotheses, alive.size());

    // Replay the transcript: each test splits the live set, and filtering
    // by plain simulation reproduces every elimination and the survivors.
    for (const auto& rec : result.additional_tests) {
        std::set<std::vector<observation>> predictions;
        std::set<fault_set> kept;
        for (const fault_set& h : alive) {
            auto predicted = observe_multi(ex.spec, rec.tc.inputs,
                                           h.to_overrides());
            if (predicted == rec.observed) kept.insert(h);
            predictions.insert(std::move(predicted));
        }
        EXPECT_GT(predictions.size(), 1u) << "test does not split";
        EXPECT_EQ(rec.observed,
                  observe_multi(ex.spec, rec.tc.inputs, fs.to_overrides()));
        EXPECT_EQ(rec.eliminated, alive.size() - kept.size());
        alive = std::move(kept);
    }
    std::set<fault_set> finals;
    for (const fault_set& h : result.final_hypotheses)
        finals.insert(canonical(h));
    EXPECT_EQ(finals, alive);
    EXPECT_TRUE(finals.count(canonical(fs)) == 1 ||
                result.outcome ==
                    diagnosis_outcome::localized_up_to_equivalence);
}

TEST(replay_cache, step_counter_is_monotone_and_counted_per_apply) {
    const auto ex = paperex::make_paper_example();
    const std::size_t before = simulated_steps();
    simulator sim(ex.spec);
    sim.reset();
    (void)sim.apply(ex.suite.cases[0].inputs[0]);
    (void)sim.apply(ex.suite.cases[0].inputs[1]);
    EXPECT_EQ(simulated_steps(), before + 2);
}

TEST(replay_cache, wide_system_diagnoses_through_reference_steps) {
    // 65 stations need 65 packed state bits, two words: the compiled
    // Steps 4-5C run on the runtime-width kernels and Step 6 on the flat
    // joint BFS, and the result must equal the reference Steps' (the
    // oracle below), as on every narrower system.
    const system spec = models::token_ring(65);
    const test_suite suite = transition_tour(spec).suite;
    const spec_context ctx(spec, suite);
    ASSERT_EQ(ctx.compiled().words, 2u);

    const auto faults = enumerate_all_faults(spec);
    std::size_t detected = 0;
    for (std::size_t i = 0; i < faults.size(); i += 40) {
        const single_transition_fault& truth = faults[i];
        SCOPED_TRACE(describe(spec, truth));
        simulated_iut iut(spec, truth);
        const diagnosis_result r = diagnose(ctx, iut);
        if (!r.symptoms.has_symptoms()) continue;
        ++detected;
        // Sound: the truth, or a hypothesis no test can tell from it.
        EXPECT_TRUE(std::any_of(
            r.final_diagnoses.begin(), r.final_diagnoses.end(),
            [&](const diagnosis& d) {
                return observationally_equivalent(spec, truth, d);
            }));
        // Steps 4-5C equal the uncached reference functions; Step 6
        // replays through the oracle.
        ref_oracle::expect_diagnosis_matches(spec, suite, r);
    }
    EXPECT_GT(detected, 0u);
}

TEST(replay_cache, rejects_out_of_range_override) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const auto cache = ref_oracle::make_replay_cache(ctx, fx.report);
    flat_replayer flat(ctx.compiled(), fx.ex.spec, fx.report);
    const flat_sequence seq(ctx.compiled(), fx.ex.spec,
                            fx.ex.suite.cases[0].inputs);
    flat_replayer step6(seq, seq.tables().expected);
    transition_override bad;
    bad.target = {machine_id{99}, transition_id{0}};
    bad.output = symbol{};
    EXPECT_THROW((void)cache.consistent(bad), error);
    EXPECT_THROW((void)flat.matches(bad), error);
    EXPECT_THROW((void)flat.consistent(std::vector{bad}), error);
    EXPECT_THROW((void)seq.predict(bad), error);
    EXPECT_THROW((void)step6.matches(bad), error);
}

}  // namespace
}  // namespace cfsmdiag
