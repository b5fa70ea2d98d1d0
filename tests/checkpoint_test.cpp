// The crash-safe sweep layer: snapshot durability, checkpoint
// serialization, streaming aggregation, and the load-bearing guarantee —
// a killed-and-resumed sweep is byte-identical to an uninterrupted one.
//
// The kill tests are real: the child process takes SIGKILL mid-campaign
// (no unwinding, no destructors), the parent resumes from whatever
// snapshot generation survived, and the merged spill is compared
// byte-for-byte against a straight-through run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cfsmdiag.hpp"

namespace cfsmdiag {
namespace {

/// Per-test scratch directory under the ctest working directory.
std::string test_dir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string dir = std::string("checkpoint_test_scratch_") +
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

void spew(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

struct sweep_fixture {
    system spec;
    test_suite suite;
    std::vector<single_transition_fault> faults;
};

sweep_fixture figure1_fixture(std::size_t max_faults = 0) {
    auto ex = paperex::make_paper_example();
    auto faults = enumerate_all_faults(ex.spec);
    if (max_faults > 0 && faults.size() > max_faults)
        faults.resize(max_faults);
    return {std::move(ex.spec), std::move(ex.suite), std::move(faults)};
}

sweep_fixture zoo_fixture(std::size_t max_faults = 0) {
    system spec = models::sliding_window(4);
    test_suite suite = transition_tour(spec).suite;
    auto faults = enumerate_all_faults(spec);
    if (max_faults > 0 && faults.size() > max_faults)
        faults.resize(max_faults);
    return {std::move(spec), std::move(suite), std::move(faults)};
}

/// One uninterrupted reference sweep; returns the spill bytes.
std::string straight_through_spill(const sweep_fixture& fx,
                                   const std::string& dir,
                                   std::size_t jobs) {
    ::mkdir(dir.c_str(), 0755);
    sweep_options opts;
    opts.campaign.jobs = jobs;
    opts.checkpoint_path = dir + "/ref.ckpt";
    opts.spill_path = dir + "/ref.jsonl";
    const sweep_result ref = run_sweep(fx.spec, fx.suite, fx.faults, opts);
    EXPECT_FALSE(ref.interrupted);
    EXPECT_EQ(ref.completed, fx.faults.size());
    return slurp(opts.spill_path);
}

// --- io/snapshot.hpp -------------------------------------------------------

TEST(snapshot_io, round_trip_and_rotation) {
    const std::string dir = test_dir();
    const std::string path = dir + "/snap";

    write_snapshot_file(path, "hello v1\n");
    auto first = load_snapshot(path);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->payload, "hello v1\n");
    EXPECT_FALSE(first->fell_back);

    write_snapshot_file(path, "hello v2\n");
    auto second = load_snapshot(path);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->payload, "hello v2\n");
    // The previous generation survives the rotation.
    auto prev = read_snapshot_file(path + ".prev");
    ASSERT_TRUE(prev.has_value());
    EXPECT_EQ(*prev, "hello v1\n");
}

TEST(snapshot_io, missing_reads_as_fresh_start) {
    const std::string dir = test_dir();
    EXPECT_FALSE(load_snapshot(dir + "/nonexistent").has_value());
    EXPECT_FALSE(read_snapshot_file(dir + "/nonexistent").has_value());
}

TEST(snapshot_io, corrupt_primary_falls_back_to_prev) {
    const std::string dir = test_dir();
    const std::string path = dir + "/snap";
    write_snapshot_file(path, "generation 1\n");
    write_snapshot_file(path, "generation 2\n");

    // Flip a payload byte in the primary: checksum must catch it.
    std::string raw = slurp(path);
    raw[0] ^= 0x20;
    spew(path, raw);

    auto loaded = load_snapshot(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, "generation 1\n");
    EXPECT_TRUE(loaded->fell_back);
    EXPECT_EQ(loaded->source, path + ".prev");
}

TEST(snapshot_io, truncated_primary_falls_back_to_prev) {
    const std::string dir = test_dir();
    const std::string path = dir + "/snap";
    write_snapshot_file(path, "generation 1\n");
    write_snapshot_file(path, "generation 2 with a longer payload\n");

    const std::string raw = slurp(path);
    spew(path, raw.substr(0, raw.size() / 2));  // torn write

    auto loaded = load_snapshot(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, "generation 1\n");
    EXPECT_TRUE(loaded->fell_back);
}

TEST(snapshot_io, all_generations_corrupt_throws) {
    const std::string dir = test_dir();
    const std::string path = dir + "/snap";
    write_snapshot_file(path, "generation 1\n");
    write_snapshot_file(path, "generation 2\n");
    spew(path, "garbage with no footer");
    std::string prev_raw = slurp(path + ".prev");
    prev_raw[prev_raw.size() / 2] ^= 0x01;
    spew(path + ".prev", prev_raw);

    EXPECT_THROW((void)load_snapshot(path), snapshot_error);
}

// --- checkpoint payload ----------------------------------------------------

sweep_checkpoint sample_checkpoint() {
    sweep_checkpoint cp;
    cp.spec_fingerprint = 0x0123456789abcdefull;
    cp.suite_fingerprint = 0xfedcba9876543210ull;
    cp.faults_fingerprint = 42;
    cp.options_fingerprint = 7;
    cp.planned = 100;
    cp.completed = 37;
    cp.spill_bytes = 12345;
    cp.aggregates.total = 37;
    cp.aggregates.detected = 30;
    cp.aggregates.localized = 12;
    cp.aggregates.localized_equiv = 18;
    cp.aggregates.sound = 30;
    cp.aggregates.sum_final_diagnoses = 61;
    cp.replays = 999;
    cp.oracle_executions = 123;
    cp.oracle_inputs = 4567;
    cp.additional_tests = 89;
    cp.additional_inputs = 1011;
    return cp;
}

TEST(sweep_checkpoint_format, round_trips_exactly) {
    const sweep_checkpoint cp = sample_checkpoint();
    const sweep_checkpoint back =
        parse_sweep_checkpoint(write_sweep_checkpoint(cp));
    EXPECT_EQ(back, cp);
}

TEST(sweep_checkpoint_format, rejects_malformed_payloads) {
    const std::string good = write_sweep_checkpoint(sample_checkpoint());

    EXPECT_THROW((void)parse_sweep_checkpoint(""), snapshot_error);
    EXPECT_THROW((void)parse_sweep_checkpoint("format wrong-v9\n"),
                 snapshot_error);
    // Unknown field: a newer writer's payload is refused, not guessed at.
    EXPECT_THROW((void)parse_sweep_checkpoint(good + "novel_field 3\n"),
                 snapshot_error);
    // Missing field.
    const std::size_t cut = good.find("agg.sound");
    std::string missing = good;
    missing.erase(cut, good.find('\n', cut) + 1 - cut);
    EXPECT_THROW((void)parse_sweep_checkpoint(missing), snapshot_error);
    // Internal inconsistency: fold disagrees with the cursor.
    sweep_checkpoint bad = sample_checkpoint();
    bad.aggregates.total = 36;
    EXPECT_THROW(
        (void)parse_sweep_checkpoint(write_sweep_checkpoint(bad)),
        snapshot_error);
}

TEST(sweep_checkpoint_format, v2_payload_is_refused_by_its_format_line) {
    // A v2 snapshot fingerprinted the four retired path switches; refusing
    // it by the format line names the real cause instead of reporting an
    // options-fingerprint mismatch on resume.
    const std::string current = write_sweep_checkpoint(sample_checkpoint());
    const std::string v2 = "format cfsmdiag-sweep-v2" +
                           current.substr(current.find('\n'));
    try {
        (void)parse_sweep_checkpoint(v2);
        FAIL() << "v2 payload accepted";
    } catch (const snapshot_error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unrecognized format line 'format cfsmdiag-sweep-v2'"),
                  std::string::npos)
            << e.what();
    }
}

// --- streaming aggregation -------------------------------------------------

TEST(streaming, stats_equal_accumulated_and_entries_arrive_in_order) {
    const sweep_fixture fx = figure1_fixture(40);

    campaign_options accumulate;
    accumulate.jobs = 4;
    campaign_engine ref(fx.spec, fx.suite, fx.faults, accumulate);
    const campaign_stats& want = ref.run();

    struct collector final : campaign_observer {
        std::vector<std::size_t> indices;
        std::vector<campaign_entry> entries;
        void on_fault_done(std::size_t index,
                           const campaign_entry& entry) override {
            indices.push_back(index);
            entries.push_back(entry);
        }
    } got;

    campaign_options stream = accumulate;
    stream.stream_entries = true;
    campaign_engine eng(fx.spec, fx.suite, fx.faults, stream);
    eng.attach(got);
    const campaign_stats& streamed = eng.run();

    // Entries: none retained, all observed, strictly in index order.
    EXPECT_TRUE(streamed.entries.empty());
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (std::size_t i = 0; i < got.entries.size(); ++i) {
        EXPECT_EQ(got.indices[i], i);
        EXPECT_EQ(got.entries[i], want.entries[i]) << "entry " << i;
    }
    // Aggregates: identical fold.
    EXPECT_EQ(streamed.total, want.total);
    EXPECT_EQ(streamed.detected, want.detected);
    EXPECT_EQ(streamed.localized, want.localized);
    EXPECT_EQ(streamed.localized_equiv, want.localized_equiv);
    EXPECT_EQ(streamed.ambiguous, want.ambiguous);
    EXPECT_EQ(streamed.no_hypothesis, want.no_hypothesis);
    EXPECT_EQ(streamed.errored, want.errored);
    EXPECT_EQ(streamed.sound, want.sound);
    EXPECT_EQ(streamed.escalations, want.escalations);
    EXPECT_EQ(streamed.fallbacks, want.fallbacks);
    EXPECT_EQ(streamed.mean_final_diagnoses, want.mean_final_diagnoses);
    EXPECT_EQ(streamed.mean_additional_tests, want.mean_additional_tests);
}

TEST(streaming, index_base_offsets_hooks_and_observers) {
    const sweep_fixture fx = figure1_fixture(10);

    std::vector<std::size_t> hook_indices;
    std::vector<std::size_t> observed;
    struct collector final : campaign_observer {
        std::vector<std::size_t>* out;
        void on_fault_done(std::size_t index,
                           const campaign_entry&) override {
            out->push_back(index);
        }
    } obs;
    obs.out = &observed;

    campaign_options opts;
    opts.stream_entries = true;
    opts.index_base = 1000;
    opts.fault_hook = [&](std::size_t i) { hook_indices.push_back(i); };
    campaign_engine eng(fx.spec, fx.suite, fx.faults, opts);
    eng.attach(obs);
    eng.run();

    ASSERT_EQ(observed.size(), fx.faults.size());
    for (std::size_t i = 0; i < observed.size(); ++i) {
        EXPECT_EQ(observed[i], 1000 + i);
        EXPECT_EQ(hook_indices[i], 1000 + i);
    }
}

TEST(streaming, json_stream_overload_matches_monolithic_dump) {
    const sweep_fixture fx = figure1_fixture(25);
    campaign_engine eng(fx.spec, fx.suite, fx.faults, {});
    eng.run();

    std::ostringstream streamed;
    campaign_to_json(streamed, fx.spec, eng.stats(), eng.metrics());
    EXPECT_EQ(streamed.str(),
              campaign_to_json(fx.spec, eng.stats(), eng.metrics())
                  .dump(true));

    // Empty-entries shape too.
    campaign_stats empty_stats;
    std::ostringstream empty_streamed;
    campaign_to_json(empty_streamed, fx.spec, empty_stats, eng.metrics());
    EXPECT_EQ(empty_streamed.str(),
              campaign_to_json(fx.spec, empty_stats, eng.metrics())
                  .dump(true));
}

// --- sweep: fresh runs and graceful interrupts -----------------------------

TEST(sweep, fresh_run_spills_every_entry_and_matches_campaign) {
    const sweep_fixture fx = figure1_fixture(30);
    const std::string dir = test_dir();

    sweep_options opts;
    opts.checkpoint_path = dir + "/sweep.ckpt";
    opts.spill_path = dir + "/sweep.jsonl";
    opts.checkpoint_every_entries = 7;
    const sweep_result result =
        run_sweep(fx.spec, fx.suite, fx.faults, opts);

    EXPECT_FALSE(result.interrupted);
    EXPECT_EQ(result.resumed_from, 0u);
    EXPECT_EQ(result.completed, fx.faults.size());
    EXPECT_GE(result.snapshots_written, fx.faults.size() / 7);

    // The spill is exactly one compact row per entry of a plain campaign.
    const campaign_stats want = run_campaign(fx.spec, fx.suite, fx.faults);
    std::string expected;
    for (const campaign_entry& e : want.entries) {
        expected += campaign_entry_to_json(fx.spec, e).dump();
        expected += '\n';
    }
    EXPECT_EQ(slurp(opts.spill_path), expected);
    EXPECT_EQ(result.stats.total, want.total);
    EXPECT_EQ(result.stats.detected, want.detected);
    EXPECT_EQ(result.stats.sound, want.sound);
    EXPECT_EQ(result.stats.mean_final_diagnoses,
              want.mean_final_diagnoses);
    std::size_t want_replays = 0;
    for (const campaign_entry& e : want.entries) want_replays += e.replays;
    EXPECT_EQ(result.metrics.replays, want_replays);
}

TEST(sweep, interrupt_flushes_final_snapshot_and_resume_completes) {
    const sweep_fixture fx = figure1_fixture(40);
    const std::string dir = test_dir();
    const std::string ref = straight_through_spill(fx, dir, 1);

    sweep_options opts;
    opts.checkpoint_path = dir + "/sweep.ckpt";
    opts.spill_path = dir + "/sweep.jsonl";
    opts.checkpoint_every_entries = 100;  // interrupt beats the cadence
    std::atomic<std::size_t> seen{0};
    opts.should_stop = [&] { return ++seen >= 13; };

    const sweep_result stopped =
        run_sweep(fx.spec, fx.suite, fx.faults, opts);
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_EQ(stopped.completed, 13u);
    // The final snapshot covers everything the result reports: resume
    // continues exactly there without re-running anything.
    sweep_options resume = opts;
    resume.should_stop = nullptr;
    resume.resume = true;
    const sweep_result finished =
        run_sweep(fx.spec, fx.suite, fx.faults, resume);
    EXPECT_FALSE(finished.interrupted);
    EXPECT_EQ(finished.resumed_from, 13u);
    EXPECT_EQ(finished.completed, fx.faults.size());
    EXPECT_EQ(slurp(opts.spill_path), ref);
}

TEST(sweep, resume_of_complete_sweep_is_a_no_op) {
    const sweep_fixture fx = figure1_fixture(15);
    const std::string dir = test_dir();

    sweep_options opts;
    opts.checkpoint_path = dir + "/sweep.ckpt";
    opts.spill_path = dir + "/sweep.jsonl";
    const sweep_result first =
        run_sweep(fx.spec, fx.suite, fx.faults, opts);
    const std::string spill_after_first = slurp(opts.spill_path);

    sweep_options again = opts;
    again.resume = true;
    const sweep_result second =
        run_sweep(fx.spec, fx.suite, fx.faults, again);
    EXPECT_EQ(second.resumed_from, fx.faults.size());
    EXPECT_EQ(second.completed, fx.faults.size());
    EXPECT_EQ(second.stats.detected, first.stats.detected);
    EXPECT_EQ(second.stats.sound, first.stats.sound);
    EXPECT_EQ(second.metrics.replays, first.metrics.replays);
    EXPECT_EQ(slurp(opts.spill_path), spill_after_first);
}

TEST(sweep, refuses_to_resume_a_different_experiment) {
    const sweep_fixture fx = figure1_fixture(15);
    const std::string dir = test_dir();

    sweep_options opts;
    opts.checkpoint_path = dir + "/sweep.ckpt";
    opts.spill_path = dir + "/sweep.jsonl";
    std::atomic<std::size_t> seen{0};
    opts.should_stop = [&] { return ++seen >= 5; };
    (void)run_sweep(fx.spec, fx.suite, fx.faults, opts);

    sweep_options resume = opts;
    resume.should_stop = nullptr;
    resume.resume = true;

    // Different option set (entry-affecting): refused.
    sweep_options other_options = resume;
    other_options.campaign.diag.max_joint_states = 1234;
    EXPECT_THROW(
        (void)run_sweep(fx.spec, fx.suite, fx.faults, other_options),
        snapshot_error);

    // Different fault universe: refused.
    auto fewer = fx.faults;
    fewer.resize(10);
    EXPECT_THROW((void)run_sweep(fx.spec, fx.suite, fewer, resume),
                 snapshot_error);

    // Different spec: refused.
    const system other = models::alternating_bit();
    test_suite other_suite = transition_tour(other).suite;
    auto other_faults = enumerate_all_faults(other);
    other_faults.resize(10);
    EXPECT_THROW(
        (void)run_sweep(other, other_suite, other_faults, resume),
        snapshot_error);

    // The unmodified experiment still resumes fine.
    const sweep_result ok = run_sweep(fx.spec, fx.suite, fx.faults, resume);
    EXPECT_EQ(ok.completed, fx.faults.size());
}

// --- sweep: SIGKILL + resume byte-identity ---------------------------------

/// Runs a sweep in a forked child that SIGKILLs itself after `kill_after`
/// emitted entries, then resumes in this process and asserts the merged
/// spill is byte-identical to an uninterrupted run.
void kill_resume_identity(const sweep_fixture& fx, std::size_t jobs,
                          std::size_t kill_after) {
    const std::string dir = test_dir();
    const std::string ref =
        straight_through_spill(fx, dir + "_j" + std::to_string(jobs), 1);

    sweep_options opts;
    opts.campaign.jobs = jobs;
    opts.checkpoint_path =
        dir + "/sweep_j" + std::to_string(jobs) + ".ckpt";
    opts.spill_path = dir + "/sweep_j" + std::to_string(jobs) + ".jsonl";
    opts.checkpoint_every_entries = 3;

    const pid_t child = fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        // In the child: die abruptly — no unwinding, no final snapshot —
        // partway through the campaign.
        sweep_options doomed = opts;
        std::atomic<std::size_t> seen{0};
        doomed.should_stop = [&] {
            if (++seen >= kill_after) ::raise(SIGKILL);
            return false;
        };
        (void)run_sweep(fx.spec, fx.suite, fx.faults, doomed);
        ::_exit(0);  // not reached when kill_after < universe
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child was expected to die by SIGKILL";

    sweep_options resume = opts;
    resume.resume = true;
    const sweep_result finished =
        run_sweep(fx.spec, fx.suite, fx.faults, resume);
    EXPECT_FALSE(finished.interrupted);
    EXPECT_GT(finished.resumed_from, 0u)
        << "child died before its first snapshot — raise kill_after";
    EXPECT_LT(finished.resumed_from, fx.faults.size());
    EXPECT_EQ(finished.completed, fx.faults.size());
    EXPECT_EQ(slurp(opts.spill_path), ref)
        << "resumed spill differs from the uninterrupted run";
}

TEST(sweep_kill, figure1_resume_is_byte_identical_serial) {
    kill_resume_identity(figure1_fixture(40), 1, 17);
}

TEST(sweep_kill, figure1_resume_is_byte_identical_parallel) {
    kill_resume_identity(figure1_fixture(40), 4, 17);
}

TEST(sweep_kill, zoo_model_resume_is_byte_identical_serial) {
    kill_resume_identity(zoo_fixture(36), 1, 15);
}

TEST(sweep_kill, zoo_model_resume_is_byte_identical_parallel) {
    kill_resume_identity(zoo_fixture(36), 4, 15);
}

TEST(sweep_kill, resume_survives_a_torn_primary_snapshot) {
    const sweep_fixture fx = figure1_fixture(30);
    const std::string dir = test_dir();
    const std::string ref = straight_through_spill(fx, dir, 1);

    sweep_options opts;
    opts.checkpoint_path = dir + "/sweep.ckpt";
    opts.spill_path = dir + "/sweep.jsonl";
    opts.checkpoint_every_entries = 5;
    std::atomic<std::size_t> seen{0};
    opts.should_stop = [&] { return ++seen >= 12; };
    (void)run_sweep(fx.spec, fx.suite, fx.faults, opts);

    // Tear the newest snapshot generation; the rotation keeps the one
    // before it and resume falls back — losing work, never correctness.
    const std::string raw = slurp(opts.checkpoint_path);
    spew(opts.checkpoint_path, raw.substr(0, raw.size() - 7));

    sweep_options resume = opts;
    resume.should_stop = nullptr;
    resume.resume = true;
    const sweep_result finished =
        run_sweep(fx.spec, fx.suite, fx.faults, resume);
    EXPECT_TRUE(finished.fell_back);
    EXPECT_EQ(finished.completed, fx.faults.size());
    EXPECT_EQ(slurp(opts.spill_path), ref);
}

}  // namespace
}  // namespace cfsmdiag
