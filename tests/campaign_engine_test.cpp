// The parallel campaign engine: determinism across thread counts, ordered
// observer delivery, the run_campaign() wrapper contract, engines sharing
// one context and its fault dictionary, and the worker pool underneath it.
//
// The determinism tests are the load-bearing ones: the engine promises that
// an N-thread campaign is entry-for-entry identical to a serial one, which
// is what lets every consumer (benches, CLI, property tests) adopt
// parallelism without re-validating results.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cfsmdiag.hpp"
#include "helpers.hpp"

namespace cfsmdiag {
namespace {

/// A small but non-trivial random system plus a suite that detects most of
/// its fault universe.
struct campaign_fixture {
    system sys;
    test_suite suite;
    std::vector<single_transition_fault> faults;

    static campaign_fixture make(std::uint64_t seed,
                                 std::size_t max_faults = 60) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 5;
        system sys = random_system(opts, random);
        test_suite suite = transition_tour(sys).suite;
        rng walk(seed + 1);
        suite.extend(random_walk_suite(
            sys, walk, {.cases = 3, .steps_per_case = 10}));
        auto faults = enumerate_all_faults(sys);
        if (faults.size() > max_faults) faults.resize(max_faults);
        return {std::move(sys), std::move(suite), std::move(faults)};
    }
};

TEST(campaign_engine, parallel_entries_identical_to_serial) {
    const auto fx = campaign_fixture::make(101);
    ASSERT_FALSE(fx.faults.empty());

    campaign_options serial;
    serial.jobs = 1;
    campaign_options parallel;
    parallel.jobs = 4;

    campaign_engine serial_engine(fx.sys, fx.suite, fx.faults, serial);
    campaign_engine parallel_engine(fx.sys, fx.suite, fx.faults, parallel);
    const campaign_stats& a = serial_engine.run();
    const campaign_stats& b = parallel_engine.run();

    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        SCOPED_TRACE("fault #" + std::to_string(i) + ": " +
                     describe(fx.sys, a.entries[i].fault));
        EXPECT_EQ(a.entries[i], b.entries[i]);
    }
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.sound, b.sound);
    EXPECT_EQ(a.localized, b.localized);
    EXPECT_EQ(a.localized_equiv, b.localized_equiv);
    EXPECT_DOUBLE_EQ(a.mean_additional_tests, b.mean_additional_tests);
    EXPECT_DOUBLE_EQ(a.mean_additional_inputs, b.mean_additional_inputs);

    // The deterministic cost counters must agree too; only wall-clock may
    // differ between the runs.
    EXPECT_EQ(serial_engine.metrics().replays,
              parallel_engine.metrics().replays);
    EXPECT_EQ(serial_engine.metrics().oracle_executions,
              parallel_engine.metrics().oracle_executions);
    EXPECT_EQ(serial_engine.metrics().oracle_inputs,
              parallel_engine.metrics().oracle_inputs);
}

TEST(campaign_engine, shuffled_execution_order_does_not_change_results) {
    const auto fx = campaign_fixture::make(102, 40);
    campaign_options plain;
    plain.jobs = 2;
    campaign_options shuffled;
    shuffled.jobs = 2;
    shuffled.seed = 777;  // shuffles execution order only

    campaign_engine a(fx.sys, fx.suite, fx.faults, plain);
    campaign_engine b(fx.sys, fx.suite, fx.faults, shuffled);
    EXPECT_EQ(a.run().entries, b.run().entries);
}

TEST(campaign_engine, wrapper_matches_engine) {
    const auto fx = campaign_fixture::make(103, 30);
    campaign_options opts;  // default: serial
    const campaign_stats via_wrapper =
        run_campaign(fx.sys, fx.suite, fx.faults, opts);
    campaign_engine engine(fx.sys, fx.suite, fx.faults, opts);
    const campaign_stats& via_engine = engine.run();
    EXPECT_EQ(via_wrapper.entries, via_engine.entries);
    EXPECT_EQ(via_wrapper.total, via_engine.total);
    EXPECT_EQ(via_wrapper.sound, via_engine.sound);
}

TEST(campaign_engine, max_faults_truncates_to_prefix) {
    const auto fx = campaign_fixture::make(104, 30);
    ASSERT_GT(fx.faults.size(), 5u);

    campaign_options all;
    campaign_engine full(fx.sys, fx.suite, fx.faults, all);
    (void)full.run();

    campaign_options capped;
    capped.max_faults = 5;
    capped.jobs = 3;
    campaign_engine truncated(fx.sys, fx.suite, fx.faults, capped);
    EXPECT_EQ(truncated.planned_faults(), 5u);
    const campaign_stats& stats = truncated.run();
    ASSERT_EQ(stats.total, 5u);
    ASSERT_EQ(stats.entries.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(stats.entries[i], full.stats().entries[i]);
}

/// Records the callback sequence; EXPECTs run on worker threads are safe
/// because gtest failure recording is synchronized by the engine's emit
/// lock (callbacks are serialized by contract — that is what this test
/// checks via the recorded order).
class recording_observer final : public campaign_observer {
  public:
    void on_campaign_begin(std::size_t planned) override {
        ++begins;
        planned_seen = planned;
    }
    void on_fault_done(std::size_t index,
                       const campaign_entry& entry) override {
        indices.push_back(index);
        faults_seen.push_back(entry.fault);
    }
    void on_campaign_end(const campaign_stats& stats,
                         const campaign_metrics& metrics) override {
        ++ends;
        total_at_end = stats.total;
        jobs_at_end = metrics.jobs;
    }

    int begins = 0;
    int ends = 0;
    std::size_t planned_seen = 0;
    std::size_t total_at_end = 0;
    std::size_t jobs_at_end = 0;
    std::vector<std::size_t> indices;
    std::vector<single_transition_fault> faults_seen;
};

TEST(campaign_engine, observer_callbacks_arrive_in_fault_index_order) {
    const auto fx = campaign_fixture::make(105, 40);
    campaign_options opts;
    opts.jobs = 4;
    opts.seed = 99;  // shuffle execution order to stress the emit cursor

    campaign_engine engine(fx.sys, fx.suite, fx.faults, opts);
    recording_observer obs;
    engine.attach(obs);
    const campaign_stats& stats = engine.run();

    EXPECT_EQ(obs.begins, 1);
    EXPECT_EQ(obs.ends, 1);
    EXPECT_EQ(obs.planned_seen, fx.faults.size());
    EXPECT_EQ(obs.total_at_end, stats.total);
    EXPECT_EQ(obs.jobs_at_end, engine.metrics().jobs);

    ASSERT_EQ(obs.indices.size(), fx.faults.size());
    for (std::size_t i = 0; i < obs.indices.size(); ++i) {
        EXPECT_EQ(obs.indices[i], i) << "callbacks out of order";
        EXPECT_EQ(obs.faults_seen[i], fx.faults[i]);
    }
}

TEST(campaign_engine, metrics_aggregate_entry_counters) {
    const auto fx = campaign_fixture::make(106, 30);
    campaign_options opts;
    opts.jobs = 2;
    campaign_engine engine(fx.sys, fx.suite, fx.faults, opts);
    const campaign_stats& stats = engine.run();
    const campaign_metrics& m = engine.metrics();

    std::size_t replays = 0, execs = 0, inputs = 0;
    for (const auto& e : stats.entries) {
        replays += e.replays;
        execs += e.oracle_executions;
        inputs += e.oracle_inputs;
    }
    EXPECT_EQ(m.faults, stats.total);
    EXPECT_EQ(m.replays, replays);
    EXPECT_EQ(m.oracle_executions, execs);
    EXPECT_EQ(m.oracle_inputs, inputs);
    // Every fault runs the suite at least once, and detected faults replay
    // hypotheses.
    EXPECT_GE(m.oracle_executions, stats.total);
    if (stats.detected > 0) {
        EXPECT_GT(m.replays, 0u);
    }
    EXPECT_GE(m.wall_total, 0.0);
}

TEST(campaign_engine, campaign_json_is_well_formed) {
    const auto fx = campaign_fixture::make(107, 10);
    campaign_options opts;
    opts.jobs = 2;
    campaign_engine engine(fx.sys, fx.suite, fx.faults, opts);
    (void)engine.run();

    const std::string dump =
        campaign_to_json(fx.sys, engine.stats(), engine.metrics())
            .dump(true);
    EXPECT_NE(dump.find("\"totals\""), std::string::npos);
    EXPECT_NE(dump.find("\"cost\""), std::string::npos);
    EXPECT_NE(dump.find("\"entries\""), std::string::npos);
    EXPECT_NE(dump.find("\"replays\""), std::string::npos);
}

TEST(campaign_engine, engines_sharing_a_context_match_a_serial_run) {
    // Two engines race to fill one context's fault dictionary and then
    // diagnose against it; each must produce what a serial run on a fresh
    // context produces.  (Under TSan this is the dictionary's race check.)
    const auto fx = campaign_fixture::make(108, 40);
    campaign_engine serial(fx.sys, fx.suite, fx.faults, {});
    const std::vector<campaign_entry> expected = serial.run().entries;

    const spec_context shared(fx.sys, fx.suite);
    campaign_options opts;
    opts.jobs = 2;
    campaign_engine a(shared, fx.faults, opts);
    campaign_engine b(shared, fx.faults, opts);
    std::thread ta([&] { (void)a.run(); });
    std::thread tb([&] { (void)b.run(); });
    ta.join();
    tb.join();
    EXPECT_NE(shared.dictionary(), nullptr);
    EXPECT_EQ(a.stats().entries, expected);
    EXPECT_EQ(b.stats().entries, expected);
}

TEST(campaign_engine, only_a_campaign_builds_the_fault_dictionary) {
    const auto fx = campaign_fixture::make(109, 10);
    const spec_context ctx(fx.sys, fx.suite);
    ASSERT_TRUE(ctx.compiled().packable);
    for (const auto& fault : fx.faults) {
        simulated_iut iut(fx.sys, fault);
        (void)diagnose(ctx, iut);
    }
    EXPECT_EQ(ctx.dictionary(), nullptr);

    campaign_engine engine(ctx, fx.faults, {});
    (void)engine.run();
    const fault_dictionary* built = ctx.dictionary();
    ASSERT_NE(built, nullptr);
    // A second campaign on the context reuses it.
    campaign_engine again(ctx, fx.faults, {});
    EXPECT_EQ(again.run().entries, engine.stats().entries);
    EXPECT_EQ(ctx.dictionary(), built);
}

TEST(thread_pool, parallel_for_visits_every_index_once) {
    std::vector<std::atomic<int>> hits(250);
    parallel_for(hits.size(), 4, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(thread_pool, parallel_for_propagates_exceptions) {
    EXPECT_THROW(
        parallel_for(100, 4,
                     [&](std::size_t i) {
                         if (i == 57) throw error("boom");
                     }),
        error);
}

TEST(thread_pool, resolve_job_count_contract) {
    EXPECT_EQ(resolve_job_count(3), 3u);
    EXPECT_GE(resolve_job_count(0), 1u);
}

TEST(thread_pool, submit_wait_rounds) {
    thread_pool pool(3);
    std::atomic<int> sum{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { sum.fetch_add(1); });
        pool.wait();
    }
    EXPECT_EQ(sum.load(), 60);
}

}  // namespace
}  // namespace cfsmdiag
