// Resource-governed diagnosis (util/budget.hpp and its consumers): the
// budget primitive itself, the degradation ladder's soundness contract, the
// campaign watchdog, budgets-off byte-identity, sweep resume across a
// budget stop, external cancellation of parallel_for, and a replay of the
// committed io fuzz corpus.
//
// The load-bearing guarantees, in the order tested:
//   1. A run with no budget installed — or with limits that never trip —
//      is byte-identical to the pre-budget engine at any jobs.
//   2. Exhaustion only *widens* verdicts toward inconclusive_resource
//      (DESIGN.md §5h): a classified entry exists for every planned fault
//      and a sound reference entry never turns unsound, only inconclusive.
//   3. A campaign deadline ends the run with every entry classified, and a
//      sweep stopped by it resumes byte-identically.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cfsmdiag.hpp"
#include "gen/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "models/models.hpp"

namespace cfsmdiag {
namespace {

std::string test_dir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string dir = std::string("budget_test_scratch_") +
                      info->test_suite_name() + "_" + info->name();
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

struct fixture {
    system spec;
    test_suite suite;
    std::vector<single_transition_fault> faults;
};

fixture figure1_fixture(std::size_t max_faults = 0) {
    auto ex = paperex::make_paper_example();
    auto faults = enumerate_all_faults(ex.spec);
    if (max_faults > 0 && faults.size() > max_faults)
        faults.resize(max_faults);
    return {std::move(ex.spec), std::move(ex.suite), std::move(faults)};
}

fixture random_fixture(std::uint64_t seed, std::size_t max_faults = 40) {
    rng random(seed);
    random_system_options opts;
    opts.machines = 2;
    opts.states_per_machine = 3;
    opts.extra_transitions = 5;
    system spec = random_system(opts, random);
    test_suite suite = transition_tour(spec).suite;
    auto faults = enumerate_all_faults(spec);
    if (faults.size() > max_faults) faults.resize(max_faults);
    return {std::move(spec), std::move(suite), std::move(faults)};
}

std::vector<campaign_entry> run_entries(const fixture& fx,
                                        const campaign_options& options) {
    campaign_engine engine(fx.spec, fx.suite, fx.faults, options);
    return engine.run().entries;
}

// --- the primitive ---------------------------------------------------------

TEST(run_budget, step_quota_trips_at_the_boundary) {
    run_budget b;
    b.with_step_quota(10);
    for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(b.poll());
    EXPECT_THROW(b.poll(), resource_exhausted);
    EXPECT_EQ(b.steps_used(), 11u);
}

TEST(run_budget, charge_trips_like_that_many_polls) {
    run_budget b;
    b.with_step_quota(10);
    b.charge(4);
    b.charge(6);  // ten polls in all: exactly at the quota
    EXPECT_EQ(b.steps_used(), 10u);
    EXPECT_THROW(b.charge(3), resource_exhausted);
    EXPECT_EQ(b.steps_used(), 11u);  // where the eleventh poll leaves it
    EXPECT_NO_THROW(b.charge(0));    // no poll, nothing to trip
    EXPECT_THROW(b.poll(), resource_exhausted);

    cancel_token token;
    run_budget c;
    c.with_cancel(token);
    token.cancel();
    EXPECT_THROW(c.charge(1), cancelled_error);
}

TEST(run_budget, expired_deadline_fires_on_first_poll) {
    run_budget b;
    b.with_deadline(run_budget::clock::now() -
                    std::chrono::milliseconds(1));
    // poll() samples the clock on the 1st, 33rd, ... calls; the very first
    // poll must already notice an expired deadline.
    EXPECT_THROW(b.poll(), resource_exhausted);
    EXPECT_THROW(b.check_deadline_now(), resource_exhausted);
}

TEST(run_budget, cancellation_beats_every_other_limit) {
    cancel_token token;
    run_budget b;
    b.with_step_quota(1).with_cancel(token);
    token.cancel();
    // Cancelled wins even though the step quota would also trip: the two
    // channels must stay distinguishable for the engine's classification.
    EXPECT_THROW(b.poll(), cancelled_error);
}

TEST(run_budget, memory_quota_is_a_high_water_mark) {
    run_budget b;
    b.with_memory_quota(1000);
    EXPECT_NO_THROW(b.note_memory(400));
    EXPECT_NO_THROW(b.note_memory(200));  // below high water: idempotent
    EXPECT_EQ(b.memory_high_water(), 400u);
    EXPECT_THROW(b.note_memory(1001), resource_exhausted);
}

TEST(run_budget, cancel_only_view_drops_quotas_keeps_token) {
    cancel_token token;
    run_budget b;
    b.with_step_quota(1).with_cancel(token);
    const run_budget view = b.cancel_only();
    for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(view.poll());
    token.cancel();
    EXPECT_THROW(view.poll(), cancelled_error);
}

TEST(budget_scope, nests_and_restores) {
    EXPECT_EQ(detail::current_budget(), nullptr);
    run_budget outer, inner;
    {
        budget_scope a(&outer);
        EXPECT_EQ(detail::current_budget(), &outer);
        {
            budget_scope b(&inner);
            EXPECT_EQ(detail::current_budget(), &inner);
        }
        EXPECT_EQ(detail::current_budget(), &outer);
    }
    EXPECT_EQ(detail::current_budget(), nullptr);
    // Uninstalled helpers are no-ops, not errors.
    EXPECT_NO_THROW(detail::budget_poll());
    EXPECT_NO_THROW(detail::budget_checkpoint());
    EXPECT_NO_THROW(detail::budget_note_memory(1u << 30));
}

// --- budgets-off byte-identity ---------------------------------------------

TEST(budget_identity, generous_limits_change_nothing) {
    // Limits that never trip must leave every entry byte-identical to the
    // unbudgeted run — the poll sites may not perturb the computation.
    const auto fx = figure1_fixture(60);
    campaign_options off;
    campaign_options generous;
    generous.budget.entry_deadline = std::chrono::milliseconds(3'600'000);
    generous.budget.entry_step_quota = 50'000'000'000ull;
    generous.budget.entry_memory_bytes = std::size_t{1} << 40;

    const auto plain = run_entries(fx, off);
    const auto governed = run_entries(fx, generous);
    ASSERT_EQ(plain.size(), governed.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE("fault #" + std::to_string(i));
        EXPECT_EQ(plain[i], governed[i]);
    }
}

TEST(budget_identity, budgets_off_identical_across_jobs) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
        const auto fx = random_fixture(seed);
        campaign_options serial;
        serial.jobs = 1;
        campaign_options parallel;
        parallel.jobs = 4;
        const auto a = run_entries(fx, serial);
        const auto b = run_entries(fx, parallel);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " fault #" +
                         std::to_string(i));
            EXPECT_EQ(a[i], b[i]);
        }
    }
}

// --- the degradation ladder ------------------------------------------------

/// Shared soundness check: under an aggressive budget every planned fault
/// still gets a classified entry, and exhaustion only widens verdicts —
/// a sound reference entry either stays sound or becomes
/// inconclusive_resource, never silently unsound (DESIGN.md §5h).
void check_ladder_soundness(const fixture& fx,
                            const campaign_options& tight) {
    campaign_options off;
    off.diag = tight.diag;
    const auto ref = run_entries(fx, off);
    const auto bud = run_entries(fx, tight);
    ASSERT_EQ(ref.size(), bud.size());
    ASSERT_EQ(bud.size(), fx.faults.size());
    for (std::size_t i = 0; i < bud.size(); ++i) {
        SCOPED_TRACE("fault #" + std::to_string(i) + ": " +
                     describe(fx.spec, bud[i].fault));
        // Starvation is never an error and never a missing entry.
        EXPECT_FALSE(bud[i].errored) << bud[i].error_message;
        EXPECT_FALSE(bud[i].timed_out);
        if (bud[i].outcome == diagnosis_outcome::inconclusive_resource) {
            // Widened: explicitly excluded from detection math.
            EXPECT_FALSE(bud[i].detected);
            EXPECT_FALSE(bud[i].sound);
            continue;
        }
        // Not starved (or starved and recovered on a cheaper rung): the
        // soundness bit may never flip off relative to the reference.
        EXPECT_EQ(bud[i].detected, ref[i].detected);
        if (ref[i].sound) EXPECT_TRUE(bud[i].sound);
    }
}

TEST(degradation_ladder, aggressive_step_quota_classifies_everything) {
    campaign_options tight;
    // Low enough to starve most Figure-1 faults mid-pipeline.
    tight.budget.entry_step_quota = 300;
    check_ladder_soundness(figure1_fixture(), tight);
}

TEST(degradation_ladder, aggressive_quota_on_random_systems) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("system seed " + std::to_string(seed));
        campaign_options tight;
        tight.budget.entry_step_quota = 150 + 40 * seed;
        check_ladder_soundness(random_fixture(seed, 25), tight);
    }
}

TEST(degradation_ladder, tiny_memory_quota_classifies_everything) {
    campaign_options tight;
    tight.budget.entry_memory_bytes = 256;  // trips on the first arena
    check_ladder_soundness(figure1_fixture(60), tight);
}

TEST(degradation_ladder, stats_count_starved_entries_separately) {
    const auto fx = figure1_fixture();
    campaign_options tight;
    // Low enough to starve Steps 1-5 outright for most faults (the Step-6
    // ladder's grace rung would otherwise still classify them normally).
    tight.budget.entry_step_quota = 25;
    campaign_engine engine(fx.spec, fx.suite, fx.faults, tight);
    const campaign_stats& stats = engine.run();
    ASSERT_GT(stats.inconclusive_resource, 0u)
        << "quota high enough that nothing starved — test is vacuous";
    std::size_t starved = 0;
    for (const auto& e : stats.entries)
        starved += e.outcome == diagnosis_outcome::inconclusive_resource;
    EXPECT_EQ(stats.inconclusive_resource, starved);
    EXPECT_EQ(stats.total, fx.faults.size());
    // Starved entries are in neither detected nor sound.
    EXPECT_LE(stats.sound, stats.detected);
    EXPECT_LE(stats.detected + stats.inconclusive_resource + stats.errored,
              stats.total);
}

TEST(degradation_ladder, governed_steps_do_not_depend_on_the_memo) {
    // A discrimination-memo hit is charged the governed steps of the search
    // it stands in for, so each fault's step count is the same on a fresh
    // context, on a shared one warming as the faults go by, and once that
    // one is fully warm (DESIGN.md §5h piece 4).
    const system spec = models::sliding_window(4);
    const test_suite suite = transition_tour(spec).suite;
    const auto steps_of = [&](const spec_context& ctx,
                              const single_transition_fault& fault) {
        run_budget b;
        b.with_step_quota(std::uint64_t{1} << 60);
        diagnoser_options o;
        o.budget = &b;
        simulated_iut iut(spec, fault);
        (void)diagnose(ctx, iut, o);
        return b.steps_used();
    };
    const spec_context shared(spec, suite);
    const std::size_t hits = discrim_totals().memo_hits;
    for (const auto& fault : enumerate_all_faults(spec)) {
        SCOPED_TRACE(describe(spec, fault));
        const std::uint64_t cold = steps_of(spec_context(spec, suite), fault);
        EXPECT_EQ(steps_of(shared, fault), cold) << "warming";
        EXPECT_EQ(steps_of(shared, fault), cold) << "warm";
    }
    EXPECT_GT(discrim_totals().memo_hits, hits) << "no memo hit was charged";
}

TEST(degradation_ladder, step_quota_entries_identical_cold_warm_and_jobs) {
    // A quota that starves a fifth of sliding_window(4)'s entries.  Memo
    // hits are charged the steps of the searches they replace, so where a
    // quota trips depends only on the entry: the entries come out the same
    // on a cold and a warm context and at jobs 1 and 4, whichever worker
    // fills a shared memo key first.
    const system spec = models::sliding_window(4);
    const test_suite suite = transition_tour(spec).suite;
    const auto faults = enumerate_all_faults(spec);
    campaign_options tight;
    tight.budget.entry_step_quota = 700;

    const spec_context ctx(spec, suite);
    campaign_engine serial(ctx, faults, tight);
    const auto cold = serial.run().entries;
    const std::size_t cold_hits = serial.metrics().discrim_memo_hits;
    std::size_t starved = 0;
    for (const auto& e : cold)
        starved += e.outcome == diagnosis_outcome::inconclusive_resource;
    ASSERT_GT(starved, 0u) << "quota starves nothing — test is vacuous";
    ASSERT_LT(starved, cold.size());

    const auto expect_same = [&](const std::vector<campaign_entry>& got,
                                 const std::string& config) {
        ASSERT_EQ(got.size(), cold.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(config + ", fault #" + std::to_string(i) + ": " +
                         describe(spec, got[i].fault));
            EXPECT_EQ(got[i], cold[i]);
        }
    };
    expect_same(serial.run().entries, "warm, jobs 1");
    EXPECT_GT(serial.metrics().discrim_memo_hits, cold_hits)
        << "the warm run must be served by the memo";

    tight.jobs = 4;
    campaign_engine parallel(spec, suite, faults, tight);
    expect_same(parallel.run().entries, "cold, jobs 4");
    expect_same(parallel.run().entries, "warm, jobs 4");
}

// --- campaign watchdog -----------------------------------------------------

TEST(campaign_watchdog, deadline_classifies_every_fault) {
    const auto fx = figure1_fixture();
    campaign_options opts;
    opts.jobs = 2;
    opts.budget.campaign_deadline = std::chrono::milliseconds(30);
    // Make each fault slow enough that the deadline lands mid-campaign.
    opts.fault_hook = [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    campaign_engine engine(fx.spec, fx.suite, fx.faults, opts);
    const campaign_stats& stats = engine.run();
    EXPECT_TRUE(engine.metrics().budget_stopped);
    EXPECT_EQ(stats.total, fx.faults.size());
    EXPECT_EQ(stats.entries.size(), fx.faults.size());
    ASSERT_GT(stats.timed_out, 0u);
    std::size_t timed_out = 0;
    bool after_first_timeout = false;
    for (const auto& e : stats.entries) {
        if (e.timed_out) {
            ++timed_out;
            after_first_timeout = true;
            // Deterministic content: default entry + fault + fixed message.
            EXPECT_FALSE(e.errored);
            EXPECT_EQ(e.outcome, diagnosis_outcome::passed);
            EXPECT_EQ(e.replays, 0u);
        }
        (void)after_first_timeout;
    }
    EXPECT_EQ(stats.timed_out, timed_out);
}

TEST(campaign_watchdog, no_deadline_means_no_watchdog) {
    const auto fx = figure1_fixture(10);
    campaign_options opts;
    campaign_engine engine(fx.spec, fx.suite, fx.faults, opts);
    const campaign_stats& stats = engine.run();
    EXPECT_FALSE(engine.metrics().budget_stopped);
    EXPECT_EQ(stats.timed_out, 0u);
}

// --- sweep: budget stop then byte-identical resume -------------------------

TEST(sweep_budget, watchdog_stop_resumes_byte_identically) {
    const auto fx = figure1_fixture();
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string dir =
            test_dir() + "_j" + std::to_string(jobs);
        ::mkdir(dir.c_str(), 0755);

        // Reference: one uninterrupted sweep.
        sweep_options ref;
        ref.campaign.jobs = jobs;
        ref.checkpoint_path = dir + "/ref.ckpt";
        ref.spill_path = dir + "/ref.jsonl";
        const sweep_result straight =
            run_sweep(fx.spec, fx.suite, fx.faults, ref);
        ASSERT_FALSE(straight.interrupted);

        // Budget-stopped first segment: a campaign deadline plus a
        // per-fault sleep guarantees the watchdog fires mid-universe.
        sweep_options first;
        first.campaign.jobs = jobs;
        first.campaign.budget.campaign_deadline =
            std::chrono::milliseconds(25);
        first.campaign.fault_hook = [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        };
        first.checkpoint_path = dir + "/sweep.ckpt";
        first.spill_path = dir + "/sweep.jsonl";
        const sweep_result stopped =
            run_sweep(fx.spec, fx.suite, fx.faults, first);
        ASSERT_TRUE(stopped.interrupted);
        ASSERT_LT(stopped.completed, fx.faults.size());
        // The durable prefix holds only real verdicts, never timed-out
        // placeholders.
        EXPECT_EQ(stopped.stats.timed_out, 0u);

        // Resume with the budget lifted (the campaign deadline is not
        // fingerprinted, exactly so this works).
        sweep_options rest = first;
        rest.campaign.budget = {};
        rest.campaign.fault_hook = nullptr;
        rest.resume = true;
        const sweep_result done =
            run_sweep(fx.spec, fx.suite, fx.faults, rest);
        EXPECT_FALSE(done.interrupted);
        EXPECT_EQ(done.completed, fx.faults.size());
        EXPECT_EQ(done.resumed_from, stopped.completed);

        EXPECT_EQ(slurp(first.spill_path), slurp(ref.spill_path));
        EXPECT_EQ(done.stats.detected, straight.stats.detected);
        EXPECT_EQ(done.stats.sound, straight.stats.sound);
        EXPECT_EQ(done.stats.localized, straight.stats.localized);
    }
}

TEST(sweep_budget, checkpoint_roundtrips_resource_fields) {
    sweep_checkpoint cp;
    cp.planned = 9;
    cp.completed = 7;
    cp.aggregates.total = 7;
    cp.aggregates.inconclusive_resource = 3;
    cp.aggregates.errored = 1;
    const sweep_checkpoint back =
        parse_sweep_checkpoint(write_sweep_checkpoint(cp));
    EXPECT_EQ(back, cp);
    EXPECT_EQ(back.aggregates.inconclusive_resource, 3u);
}

TEST(sweep_budget, v1_snapshots_are_refused) {
    std::string payload = write_sweep_checkpoint({});
    const std::string current = "cfsmdiag-sweep-v3";
    payload.replace(payload.find(current), current.size(),
                    "cfsmdiag-sweep-v1");
    EXPECT_THROW((void)parse_sweep_checkpoint(payload), snapshot_error);
}

// --- parallel_for external cancellation ------------------------------------

TEST(parallel_for_cancel, precancelled_token_runs_nothing) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        cancel_token token;
        token.cancel();
        std::atomic<int> ran{0};
        parallel_for(64, jobs, [&](std::size_t) { ++ran; }, &token);
        EXPECT_EQ(ran.load(), 0) << "jobs " << jobs;
    }
}

TEST(parallel_for_cancel, mid_run_cancel_stops_claiming) {
    cancel_token token;
    std::atomic<int> ran{0};
    parallel_for(
        10'000, 4,
        [&](std::size_t) {
            if (++ran == 5) token.cancel();
        },
        &token);
    // In-flight iterations finish but no new ones are claimed; with 4
    // workers at most a handful slip through after the flip.
    EXPECT_GE(ran.load(), 5);
    EXPECT_LT(ran.load(), 10'000);
}

TEST(parallel_for_cancel, null_token_runs_everything) {
    std::atomic<int> ran{0};
    parallel_for(100, 4, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 100);
}

// --- fuzz corpus replay ----------------------------------------------------

TEST(fuzz_corpus, committed_crashers_are_rejected_cleanly) {
    namespace fs = std::filesystem;
    const fs::path corpus = FUZZ_CORPUS_DIR;
    ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
    const auto example = paperex::make_paper_example();
    const std::string snap = test_dir() + "/replay.snap";
    std::size_t replayed = 0;
    for (const auto& file : fs::directory_iterator(corpus)) {
        if (!file.is_regular_file()) continue;
        const std::string bytes = slurp(file.path().string());
        const std::string name = file.path().filename().string();
        SCOPED_TRACE(name);
        ++replayed;
        // Every boundary must end in model_error/snapshot_error or a clean
        // parse — nothing else may escape.
        auto guarded = [&](auto&& f) {
            try {
                f();
            } catch (const model_error&) {
            } catch (const snapshot_error&) {
            }
        };
        EXPECT_NO_THROW(guarded([&] { (void)parse_system(bytes); }));
        EXPECT_NO_THROW(guarded(
            [&] { (void)parse_suite(bytes, example.spec.symbols()); }));
        EXPECT_NO_THROW(
            guarded([&] { (void)parse_fault(bytes, example.spec); }));
        EXPECT_NO_THROW(guarded([&] {
            {
                std::ofstream out(snap,
                                  std::ios::binary | std::ios::trunc);
                out << bytes;
            }
            if (auto loaded = load_snapshot(snap))
                (void)parse_sweep_checkpoint(loaded->payload);
        }));
    }
    EXPECT_GT(replayed, 0u) << "corpus directory is empty";
}

}  // namespace
}  // namespace cfsmdiag
