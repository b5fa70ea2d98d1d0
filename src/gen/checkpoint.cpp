#include "gen/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "io/snapshot.hpp"
#include "io/text_format.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace cfsmdiag {
namespace {

// v3: drops the four diagnosis-path switches (replay_cache, compiled_core,
// flat_discrim, discrim_memo) from the options fingerprint, since the
// input alone now picks each path.  A v2 snapshot is refused here, by its
// format line, instead of failing later as an options-fingerprint
// mismatch that would misname the cause.
// v2: added the resource-governance aggregate fields
// (agg.inconclusive_resource, agg.timed_out) and the per-entry budget
// knobs to the options fingerprint.  v1 snapshots are refused — their
// aggregates cannot be widened soundly without guessing zeros for counts
// the old engine never classified.
constexpr std::string_view kFormatLine = "format cfsmdiag-sweep-v3";

/// Thrown by the recorder to cancel the engine's parallel_for when
/// should_stop fires.  Deliberately NOT derived from std::exception: no
/// catch handler between the observer and run_sweep may swallow it.
struct sweep_interrupt {};

[[noreturn]] void fail(const std::string& what) {
    throw snapshot_error("sweep checkpoint: " + what);
}

std::string hex16(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf, 16);
}

std::uint64_t parse_hex16(const std::string& key, std::string_view text) {
    if (text.size() != 16)
        fail("field '" + key + "' is not a 16-digit hex value");
    std::uint64_t v = 0;
    for (const char c : text) {
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else
            fail("field '" + key + "' is not a 16-digit hex value");
        v = v << 4 | static_cast<std::uint64_t>(digit);
    }
    return v;
}

std::size_t parse_count(const std::string& key, std::string_view text) {
    if (text.empty()) fail("field '" + key + "' is empty");
    std::size_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            fail("field '" + key + "' is not an unsigned integer");
        const std::size_t digit = static_cast<std::size_t>(c - '0');
        if (v > (SIZE_MAX - digit) / 10)
            fail("field '" + key + "' overflows");
        v = v * 10 + digit;
    }
    return v;
}

/// The entry-affecting subset of the options, canonicalized.  jobs, seed,
/// and the checkpoint cadence are deliberately absent: they never change
/// what the entries are.
std::string canonical_options(const campaign_options& o) {
    auto num = [](double d) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        return std::string(buf);
    };
    std::string s;
    s += "evaluation=" +
         std::to_string(static_cast<int>(o.diag.evaluation));
    s += ";addressing=" + std::to_string(o.diag.include_addressing_faults);
    s += ";structured_step6=" + std::to_string(o.diag.structured_step6);
    s += ";fallback_search=" + std::to_string(o.diag.fallback_search);
    s += ";escalate_if_empty=" + std::to_string(o.diag.escalate_if_empty);
    s += ";max_additional_tests=" +
         std::to_string(o.diag.max_additional_tests);
    s += ";max_joint_states=" + std::to_string(o.diag.max_joint_states);
    s += ";step6_max_proposals=" +
         std::to_string(o.diag.step6.max_proposals);
    s += ";step6_max_states=" +
         std::to_string(o.diag.step6.search.max_states);
    s += ";step6_skip_null=" +
         std::to_string(o.diag.step6.search.skip_null_steps);
    s += ";step6_avoid=" + std::to_string(o.diag.step6.search.avoid.size());
    s += ";max_faults=" +
         (o.max_faults ? std::to_string(*o.max_faults) : std::string("all"));
    if (o.flaky) {
        s += ";flaky=" + num(o.flaky->drop_rate) + "," +
             num(o.flaky->garble_rate) + "," + num(o.flaky->hang_rate) +
             "," + num(o.flaky->reset_fail_rate) + "," +
             num(o.flaky->reset_skip_rate) + "," +
             std::to_string(o.flaky->seed);
    } else {
        s += ";flaky=none";
    }
    s += ";retry=" + std::to_string(o.retry.votes) + "," +
         std::to_string(o.retry.max_retries) + "," +
         std::to_string(o.retry.deadline_ms) + "," +
         std::to_string(o.retry.max_case_inputs);
    // Per-entry budget limits change entry *content* (degradation ladder,
    // inconclusive_resource verdicts), so they fingerprint.  The
    // campaign-wide deadline is deliberately absent: like SIGINT timing it
    // only decides where a run stops, and a resume under a different
    // deadline must still splice onto the same prefix.
    const campaign_budget& b = o.budget;
    s += ";entry_deadline_ms=" +
         (b.entry_deadline ? std::to_string(b.entry_deadline->count())
                           : std::string("none"));
    s += ";entry_step_quota=" +
         (b.entry_step_quota ? std::to_string(*b.entry_step_quota)
                             : std::string("none"));
    s += ";entry_memory_bytes=" +
         (b.entry_memory_bytes ? std::to_string(*b.entry_memory_bytes)
                               : std::string("none"));
    return s;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

/// Append-only JSONL spill with explicit durability: rows are written
/// through immediately (each row is one whole diagnosis — syscall cost is
/// noise), sync() makes them durable before a snapshot cites them.
class spill_writer {
  public:
    spill_writer(const std::string& path, std::size_t resume_bytes)
        : path_(path) {
        if (resume_bytes > 0) {
            // Resume: the file must cover at least the checkpointed prefix;
            // anything beyond it is a torn tail from after the last
            // snapshot and is truncated away.
            struct stat st{};
            if (::stat(path.c_str(), &st) != 0)
                fail("snapshot records " + std::to_string(resume_bytes) +
                     " spill bytes but '" + path + "' is missing");
            if (static_cast<std::size_t>(st.st_size) < resume_bytes)
                fail("spill '" + path + "' is shorter (" +
                     std::to_string(st.st_size) +
                     " bytes) than the snapshot records (" +
                     std::to_string(resume_bytes) +
                     ") — wrong file or lost writes");
            fd_ = ::open(path.c_str(), O_WRONLY);
            if (fd_ < 0)
                fail("cannot open spill '" + path +
                     "': " + std::strerror(errno));
            if (::ftruncate(fd_, static_cast<off_t>(resume_bytes)) != 0)
                fail("cannot truncate spill '" + path +
                     "': " + std::strerror(errno));
            if (::lseek(fd_, 0, SEEK_END) < 0)
                fail("cannot seek spill '" + path +
                     "': " + std::strerror(errno));
        } else {
            fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd_ < 0)
                fail("cannot create spill '" + path +
                     "': " + std::strerror(errno));
        }
        bytes_ = resume_bytes;
    }

    ~spill_writer() {
        if (fd_ >= 0) ::close(fd_);
    }
    spill_writer(const spill_writer&) = delete;
    spill_writer& operator=(const spill_writer&) = delete;

    void append(std::string_view row) {
        std::size_t off = 0;
        while (off < row.size()) {
            const ssize_t n =
                ::write(fd_, row.data() + off, row.size() - off);
            if (n < 0) {
                if (errno == EINTR) continue;
                fail("short write to spill '" + path_ +
                     "': " + std::strerror(errno));
            }
            off += static_cast<std::size_t>(n);
        }
        bytes_ += row.size();
    }

    void sync() {
        if (::fsync(fd_) != 0)
            fail("fsync of spill '" + path_ +
                 "' failed: " + std::strerror(errno));
    }

    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  private:
    std::string path_;
    int fd_ = -1;
    std::size_t bytes_ = 0;
};

/// The sweep's observer: folds each emitted entry into the checkpoint
/// state, spills it, writes periodic snapshots, and raises the graceful
/// interrupt.  Runs serialized, in global fault-index order (the engine's
/// completion cursor guarantees both).
class sweep_recorder final : public campaign_observer {
  public:
    sweep_recorder(const system& spec, sweep_checkpoint& cp,
                   spill_writer* spill, const sweep_options& options,
                   std::size_t& snapshots_written)
        : spec_(spec),
          cp_(cp),
          spill_(spill),
          options_(options),
          snapshots_written_(snapshots_written),
          last_snapshot_(std::chrono::steady_clock::now()) {}

    void on_fault_done(std::size_t index,
                       const campaign_entry& entry) override {
        // A timed-out entry is where the campaign deadline fired, and
        // *which* index that is depends on wall-clock.  Stop the durable
        // prefix BEFORE folding it: completed then ends at the last real
        // verdict, and a resume re-runs exactly the starved indices —
        // splicing to the same bytes an uninterrupted run would produce.
        if (entry.timed_out) throw sweep_interrupt{};
        cp_.aggregates.add(entry);
        cp_.replays += entry.replays;
        cp_.oracle_executions += entry.oracle_executions;
        cp_.oracle_inputs += entry.oracle_inputs;
        cp_.additional_tests += entry.additional_tests;
        cp_.additional_inputs += entry.additional_inputs;
        cp_.completed = index + 1;
        if (spill_) {
            std::string row = campaign_entry_to_json(spec_, entry).dump();
            row += '\n';
            spill_->append(row);
        }
        ++since_snapshot_;
        const bool due =
            (options_.checkpoint_every_entries > 0 &&
             since_snapshot_ >= options_.checkpoint_every_entries) ||
            (options_.checkpoint_every_seconds > 0 &&
             seconds_since(last_snapshot_) >=
                 options_.checkpoint_every_seconds);
        if (due) snapshot();
        // Checked last: the stopping entry is already folded, spilled, and
        // (when a snapshot was due) durable.
        if (options_.should_stop && options_.should_stop())
            throw sweep_interrupt{};
    }

    /// Spill-then-snapshot, in that order: a snapshot must never cite
    /// spill bytes that are not yet durable.
    void snapshot() {
        if (spill_) {
            spill_->sync();
            cp_.spill_bytes = spill_->bytes();
        }
        write_snapshot_file(options_.checkpoint_path,
                            write_sweep_checkpoint(cp_));
        ++snapshots_written_;
        since_snapshot_ = 0;
        last_snapshot_ = std::chrono::steady_clock::now();
    }

  private:
    const system& spec_;
    sweep_checkpoint& cp_;
    spill_writer* spill_;
    const sweep_options& options_;
    std::size_t& snapshots_written_;
    std::size_t since_snapshot_ = 0;
    std::chrono::steady_clock::time_point last_snapshot_;
};

}  // namespace

std::string write_sweep_checkpoint(const sweep_checkpoint& cp) {
    std::string out(kFormatLine);
    out += '\n';
    auto put = [&](std::string_view key, std::string value) {
        out += key;
        out += ' ';
        out += value;
        out += '\n';
    };
    put("spec", hex16(cp.spec_fingerprint));
    put("suite", hex16(cp.suite_fingerprint));
    put("faults", hex16(cp.faults_fingerprint));
    put("options", hex16(cp.options_fingerprint));
    put("planned", std::to_string(cp.planned));
    put("completed", std::to_string(cp.completed));
    put("spill_bytes", std::to_string(cp.spill_bytes));
    const campaign_aggregator& a = cp.aggregates;
    put("agg.total", std::to_string(a.total));
    put("agg.detected", std::to_string(a.detected));
    put("agg.localized", std::to_string(a.localized));
    put("agg.localized_equiv", std::to_string(a.localized_equiv));
    put("agg.ambiguous", std::to_string(a.ambiguous));
    put("agg.no_hypothesis", std::to_string(a.no_hypothesis));
    put("agg.inconclusive_unreliable",
        std::to_string(a.inconclusive_unreliable));
    put("agg.errored", std::to_string(a.errored));
    put("agg.inconclusive_resource",
        std::to_string(a.inconclusive_resource));
    put("agg.timed_out", std::to_string(a.timed_out));
    put("agg.sound", std::to_string(a.sound));
    put("agg.escalations", std::to_string(a.escalations));
    put("agg.fallbacks", std::to_string(a.fallbacks));
    put("agg.retries", std::to_string(a.retries));
    put("agg.transient_failures", std::to_string(a.transient_failures));
    put("agg.quarantined_runs", std::to_string(a.quarantined_runs));
    put("agg.sum_initial_diagnoses",
        std::to_string(a.sum_initial_diagnoses));
    put("agg.sum_final_diagnoses", std::to_string(a.sum_final_diagnoses));
    put("agg.sum_additional_tests",
        std::to_string(a.sum_additional_tests));
    put("agg.sum_additional_inputs",
        std::to_string(a.sum_additional_inputs));
    put("fold.replays", std::to_string(cp.replays));
    put("fold.oracle_executions", std::to_string(cp.oracle_executions));
    put("fold.oracle_inputs", std::to_string(cp.oracle_inputs));
    put("fold.additional_tests", std::to_string(cp.additional_tests));
    put("fold.additional_inputs", std::to_string(cp.additional_inputs));
    return out;
}

sweep_checkpoint parse_sweep_checkpoint(const std::string& payload) {
    std::map<std::string, std::string> fields;
    bool saw_format = false;
    for (const std::string& raw : split(payload, '\n')) {
        const std::string_view line = trim(raw);
        if (line.empty()) continue;
        if (!saw_format) {
            if (line != kFormatLine)
                fail("unrecognized format line '" + std::string(line) +
                     "' (expected '" + std::string(kFormatLine) + "')");
            saw_format = true;
            continue;
        }
        const std::size_t space = line.find(' ');
        if (space == std::string_view::npos)
            fail("malformed line '" + std::string(line) + "'");
        std::string key(line.substr(0, space));
        std::string value(trim(line.substr(space + 1)));
        if (!fields.emplace(std::move(key), std::move(value)).second)
            fail("duplicate field '" + std::string(line.substr(0, space)) +
                 "'");
    }
    if (!saw_format) fail("empty payload");

    auto take = [&](const char* key) {
        const auto it = fields.find(key);
        if (it == fields.end())
            fail("missing field '" + std::string(key) + "'");
        std::string value = std::move(it->second);
        fields.erase(it);
        return value;
    };
    sweep_checkpoint cp;
    cp.spec_fingerprint = parse_hex16("spec", take("spec"));
    cp.suite_fingerprint = parse_hex16("suite", take("suite"));
    cp.faults_fingerprint = parse_hex16("faults", take("faults"));
    cp.options_fingerprint = parse_hex16("options", take("options"));
    cp.planned = parse_count("planned", take("planned"));
    cp.completed = parse_count("completed", take("completed"));
    cp.spill_bytes = parse_count("spill_bytes", take("spill_bytes"));
    campaign_aggregator& a = cp.aggregates;
    a.total = parse_count("agg.total", take("agg.total"));
    a.detected = parse_count("agg.detected", take("agg.detected"));
    a.localized = parse_count("agg.localized", take("agg.localized"));
    a.localized_equiv =
        parse_count("agg.localized_equiv", take("agg.localized_equiv"));
    a.ambiguous = parse_count("agg.ambiguous", take("agg.ambiguous"));
    a.no_hypothesis =
        parse_count("agg.no_hypothesis", take("agg.no_hypothesis"));
    a.inconclusive_unreliable =
        parse_count("agg.inconclusive_unreliable",
                    take("agg.inconclusive_unreliable"));
    a.errored = parse_count("agg.errored", take("agg.errored"));
    a.inconclusive_resource = parse_count(
        "agg.inconclusive_resource", take("agg.inconclusive_resource"));
    a.timed_out = parse_count("agg.timed_out", take("agg.timed_out"));
    a.sound = parse_count("agg.sound", take("agg.sound"));
    a.escalations = parse_count("agg.escalations", take("agg.escalations"));
    a.fallbacks = parse_count("agg.fallbacks", take("agg.fallbacks"));
    a.retries = parse_count("agg.retries", take("agg.retries"));
    a.transient_failures = parse_count("agg.transient_failures",
                                       take("agg.transient_failures"));
    a.quarantined_runs =
        parse_count("agg.quarantined_runs", take("agg.quarantined_runs"));
    a.sum_initial_diagnoses = parse_count("agg.sum_initial_diagnoses",
                                          take("agg.sum_initial_diagnoses"));
    a.sum_final_diagnoses = parse_count("agg.sum_final_diagnoses",
                                        take("agg.sum_final_diagnoses"));
    a.sum_additional_tests = parse_count("agg.sum_additional_tests",
                                         take("agg.sum_additional_tests"));
    a.sum_additional_inputs = parse_count("agg.sum_additional_inputs",
                                          take("agg.sum_additional_inputs"));
    cp.replays = parse_count("fold.replays", take("fold.replays"));
    cp.oracle_executions = parse_count("fold.oracle_executions",
                                       take("fold.oracle_executions"));
    cp.oracle_inputs =
        parse_count("fold.oracle_inputs", take("fold.oracle_inputs"));
    cp.additional_tests = parse_count("fold.additional_tests",
                                      take("fold.additional_tests"));
    cp.additional_inputs = parse_count("fold.additional_inputs",
                                       take("fold.additional_inputs"));
    if (!fields.empty())
        fail("unknown field '" + fields.begin()->first +
             "' (snapshot from a newer format?)");
    if (cp.completed > cp.planned)
        fail("completed (" + std::to_string(cp.completed) +
             ") exceeds planned (" + std::to_string(cp.planned) + ")");
    if (a.total != cp.completed)
        fail("aggregate total (" + std::to_string(a.total) +
             ") disagrees with completed (" + std::to_string(cp.completed) +
             ")");
    return cp;
}

sweep_checkpoint fingerprint_sweep(
    const spec_context& ctx,
    const std::vector<single_transition_fault>& faults,
    const campaign_options& options) {
    sweep_checkpoint cp;
    cp.spec_fingerprint = fnv1a64(write_system(ctx.spec()));
    cp.suite_fingerprint =
        fnv1a64(write_suite(ctx.suite(), ctx.spec().symbols()));
    std::uint64_t fh = fnv1a64("");
    for (const single_transition_fault& f : faults) {
        fh = fnv1a64(write_fault(ctx.spec(), f), fh);
        fh = fnv1a64("\n", fh);
    }
    cp.faults_fingerprint = fh;
    cp.options_fingerprint = fnv1a64(canonical_options(options));
    return cp;
}

sweep_result run_sweep(const spec_context& ctx,
                       const std::vector<single_transition_fault>& faults,
                       const sweep_options& options) {
    if (options.checkpoint_path.empty())
        throw error("run_sweep: checkpoint_path is required");

    const campaign_options& base = options.campaign;
    const std::size_t planned =
        std::min(faults.size(), base.max_faults.value_or(faults.size()));
    sweep_checkpoint world = fingerprint_sweep(ctx, faults, base);
    world.planned = planned;

    sweep_result result;
    sweep_checkpoint cp = world;
    if (options.resume) {
        if (auto loaded = load_snapshot(options.checkpoint_path)) {
            sweep_checkpoint prior = parse_sweep_checkpoint(loaded->payload);
            auto check = [&](const char* what, std::uint64_t snap,
                             std::uint64_t now) {
                if (snap != now)
                    fail(std::string("'") + loaded->source +
                         "' was written for a different " + what +
                         " (fingerprint " + hex16(snap) + ", current " +
                         hex16(now) + ") — refusing to resume");
            };
            check("spec", prior.spec_fingerprint, world.spec_fingerprint);
            check("suite", prior.suite_fingerprint,
                  world.suite_fingerprint);
            check("fault universe", prior.faults_fingerprint,
                  world.faults_fingerprint);
            check("option set", prior.options_fingerprint,
                  world.options_fingerprint);
            if (prior.planned != planned)
                fail("'" + loaded->source + "' planned " +
                     std::to_string(prior.planned) +
                     " faults but this run plans " +
                     std::to_string(planned) + " — refusing to resume");
            if (prior.spill_bytes > 0 && options.spill_path.empty())
                fail("'" + loaded->source +
                     "' records an entry spill but no spill path is "
                     "configured");
            cp = std::move(prior);
            result.resumed_from = cp.completed;
            result.fell_back = loaded->fell_back;
        }
    }

    std::optional<spill_writer> spill;
    if (!options.spill_path.empty())
        spill.emplace(options.spill_path, cp.spill_bytes);

    sweep_recorder recorder(ctx.spec(), cp, spill ? &*spill : nullptr,
                            options, result.snapshots_written);

    if (cp.completed < planned) {
        campaign_options segment = base;
        segment.stream_entries = true;
        segment.index_base = cp.completed;
        segment.seed = 0;  // keeps the streaming reorder window bounded
        segment.max_faults.reset();  // the sub-range below is pre-trimmed
        std::vector<single_transition_fault> rest(
            faults.begin() + static_cast<std::ptrdiff_t>(cp.completed),
            faults.begin() + static_cast<std::ptrdiff_t>(planned));

        campaign_engine engine(ctx, std::move(rest), segment);
        if (options.observer) engine.attach(*options.observer);
        engine.attach(recorder);
        try {
            engine.run();
        } catch (const sweep_interrupt&) {
            result.interrupted = true;
        }
        result.metrics = engine.metrics();
        // The campaign deadline fired before the prefix was complete: the
        // recorder's interrupt (thrown at the first timed-out entry)
        // normally sets this already, but a cancellation that starves
        // every remaining fault before any emits still must read as
        // interrupted — the sweep is resumable either way.
        if (result.metrics.budget_stopped && cp.completed < planned)
            result.interrupted = true;
    }

    // The final snapshot: always flushed, so the on-disk state reflects
    // exactly what this result reports — including after an interrupt.
    recorder.snapshot();

    result.completed = cp.completed;
    result.stats = cp.aggregates.finish();
    // Entry-derived counters cover the whole completed prefix; the
    // sharing-dependent and wall-clock fields keep their current-segment
    // values from the engine.
    result.metrics.faults = cp.completed;
    result.metrics.replays = cp.replays;
    result.metrics.oracle_executions = cp.oracle_executions;
    result.metrics.oracle_inputs = cp.oracle_inputs;
    result.metrics.additional_tests = cp.additional_tests;
    result.metrics.additional_inputs = cp.additional_inputs;
    return result;
}

sweep_result run_sweep(const system& spec, const test_suite& suite,
                       const std::vector<single_transition_fault>& faults,
                       const sweep_options& options) {
    spec_context ctx(spec, suite);
    return run_sweep(ctx, faults, options);
}

}  // namespace cfsmdiag
