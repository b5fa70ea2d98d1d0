// cfsmdiag — command-line front end for the library.
//
//   cfsmdiag show <system-file>             validate and pretty-print
//   cfsmdiag dot <system-file>              Graphviz DOT for every machine
//   cfsmdiag gen <system-file> <method>     generate a test suite
//                                           (tour|w|wp|uio|ds|diagnostic)
//   cfsmdiag diagnose <system-file> <suite-file> <fault-spec> [--json]
//                                           diagnose a simulated IUT, e.g.
//                                           fault-spec "M3.t''4 -> s0" or
//                                           "M1.t7 / c' ; M2.t'1 -> s2"
//                                           (';' separates multiple faults)
//   cfsmdiag score <system-file> <suite>    mutation-score the suite
//   cfsmdiag reduce <system-file> <suite>   detection-preserving reduction
//   cfsmdiag campaign <system-file> [max] [--jobs N] [--max-faults N]
//                     [--seed S] [--json <path>] [--progress]
//                                           exhaustive fault campaign via
//                                           the parallel campaign engine
//   cfsmdiag campaign ... --checkpoint <path> [--checkpoint-every <n|Ns>]
//                     [--spill <path>] [--resume]
//                                           crash-safe checkpointed sweep:
//                                           SIGINT/SIGTERM flush a final
//                                           snapshot; --resume continues a
//                                           killed run byte-identically
//   cfsmdiag random <seed> [N] [states]     emit a random system file
//
// Files use the text format of src/io/text_format.hpp.
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "cfsmdiag.hpp"

namespace {

using namespace cfsmdiag;

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    detail::require(in.good(), [&] { return "cannot open file: " + path; });
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------------
// Strict flag-value parsing.  Every numeric flag goes through one of these,
// so a bad value is a usage_error naming the offending flag and its expected
// domain — not an unanchored std::stoul exception or a silent wrap of a
// negative number to a huge unsigned one.

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        throw usage_error(flag + " expects a non-negative integer, got '" +
                          text + "'");
    try {
        return std::stoull(text);
    } catch (const std::out_of_range&) {
        throw usage_error(flag + " value '" + text + "' is out of range");
    }
}

double parse_rate(const std::string& flag, const std::string& text) {
    double value = 0.0;
    std::size_t used = 0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != text.size() || !(value >= 0.0) || !(value <= 1.0))
        throw usage_error(flag + " expects a rate in [0, 1], got '" + text +
                          "'");
    return value;
}

int cmd_show(const std::string& path) {
    const auto sys = parse_system(slurp(path));
    const auto violations = check_structure(sys);
    std::cout << "system " << sys.name() << ": " << sys.machine_count()
              << " machines, " << sys.total_transitions()
              << " transitions\n";
    for (const fsm& m : sys.machines()) {
        text_table t({"name", "from", "input", "output", "to", "kind"});
        for (const auto& tr : m.transitions()) {
            t.add_row({tr.name, m.state_name(tr.from),
                       sys.symbols().name(tr.input),
                       sys.symbols().name(tr.output), m.state_name(tr.to),
                       tr.kind == output_kind::external
                           ? "external"
                           : "=> " + sys.machine(tr.destination).name()});
        }
        std::cout << "\n" << m.name() << " (initial "
                  << m.state_name(m.initial_state()) << "):\n"
                  << t;
    }
    if (violations.empty()) {
        std::cout << "\nstructure: OK\n";
        return 0;
    }
    std::cout << "\nstructure violations:\n";
    for (const auto& v : violations) std::cout << "  - " << v.message << "\n";
    return 1;
}

int cmd_dot(const std::string& path) {
    const auto sys = parse_system(slurp(path));
    for (const fsm& m : sys.machines())
        std::cout << to_dot(m, sys.symbols()) << "\n";
    return 0;
}

int cmd_gen(const std::string& path, const std::string& method) {
    const auto sys = parse_system(slurp(path));
    validate_structure(sys);
    test_suite suite;
    if (method == "tour") {
        const auto r = transition_tour(sys);
        suite = r.suite;
        for (auto id : r.uncovered)
            std::cerr << "# uncovered: " << sys.transition_label(id) << "\n";
    } else if (method == "w") {
        suite = per_machine_method_suite(sys, verification_method::w).suite;
    } else if (method == "wp") {
        suite = per_machine_method_suite(sys, verification_method::wp).suite;
    } else if (method == "uio") {
        suite =
            per_machine_method_suite(sys, verification_method::uio).suite;
    } else if (method == "ds") {
        suite = per_machine_method_suite(sys, verification_method::ds).suite;
    } else if (method == "diagnostic") {
        const auto r = apriori_diagnostic_suite(sys);
        suite = r.suite;
        std::cerr << "# " << r.hypotheses << " hypotheses, "
                  << r.equivalent_groups << " equivalent group(s)\n";
    } else {
        throw usage_error("gen: unknown method '" + method +
                          "' (tour|w|wp|uio|ds|diagnostic)");
    }
    std::cout << write_suite(suite, sys.symbols());
    return 0;
}

int cmd_diagnose(const std::string& sys_path, const std::string& suite_path,
                 const std::string& fault_spec, bool as_json) {
    const auto sys = parse_system(slurp(sys_path));
    validate_structure(sys);
    const auto suite = parse_suite(slurp(suite_path), sys.symbols());

    fault_set faults;
    for (const auto& piece : split(fault_spec, ';')) {
        if (trim(piece).empty()) continue;
        faults.faults.push_back(parse_fault(std::string(trim(piece)), sys));
    }
    detail::require(!faults.faults.empty(), "no fault specified");

    if (faults.faults.size() == 1) {
        simulated_iut iut(sys, faults.faults[0]);
        const auto result = diagnose(sys, suite, iut);
        if (as_json) {
            std::cout << report_to_json(sys, result).dump(true) << "\n";
        } else {
            std::cout << summarize(sys, result);
        }
        return result.outcome == diagnosis_outcome::passed ? 1 : 0;
    }
    simulated_multi_iut iut(sys, faults);
    const auto result = diagnose_multi(sys, suite, iut);
    if (as_json) {
        std::cout << report_to_json(sys, result).dump(true) << "\n";
        return result.outcome == diagnosis_outcome::passed ? 1 : 0;
    }
    std::cout << "outcome: " << to_string(result.outcome) << "\n";
    std::cout << "initial hypotheses: " << result.initial_hypotheses
              << ", additional tests: " << result.additional_tests.size()
              << "\n";
    for (const auto& fs : result.final_hypotheses)
        std::cout << "  - " << describe(sys, fs) << "\n";
    return result.outcome == diagnosis_outcome::passed ? 1 : 0;
}

int cmd_witness(const std::string& sys_path,
                const std::string& fault_spec) {
    const auto sys = parse_system(slurp(sys_path));
    validate_structure(sys);
    const auto fault = parse_fault(fault_spec, sys);
    const auto w = witness_test(sys, fault);
    if (!w) {
        std::cout << "fault is observationally equivalent to the "
                     "specification — no witness exists\n";
        return 1;
    }
    std::cout << describe(sys, fault) << "\n" << w->describe(sys);
    return 0;
}

int cmd_score(const std::string& sys_path, const std::string& suite_path) {
    const auto sys = parse_system(slurp(sys_path));
    validate_structure(sys);
    const auto suite = parse_suite(slurp(suite_path), sys.symbols());
    const auto report = mutation_score(sys, suite);
    std::cout << "mutants: " << report.mutants << ", killed: "
              << report.killed << ", equivalent: "
              << report.equivalent.size() << ", score: "
              << fmt_double(100.0 * report.score(), 1) << "%\n";
    if (!report.survivors.empty()) {
        std::cout << "live (killable) mutants:\n";
        for (const auto& f : report.survivors)
            std::cout << "  - " << describe(sys, f) << "\n";
    }
    return report.survivors.empty() ? 0 : 1;
}

int cmd_reduce(const std::string& sys_path, const std::string& suite_path) {
    const auto sys = parse_system(slurp(sys_path));
    validate_structure(sys);
    const auto suite = parse_suite(slurp(suite_path), sys.symbols());
    const auto reduced =
        reduce_suite(sys, suite, enumerate_all_faults(sys));
    std::cerr << "# " << reduced.cases_before << " -> "
              << reduced.cases_after << " cases ("
              << reduced.undetected_faults
              << " faults were never detected)\n";
    std::cout << write_suite(reduced.suite, sys.symbols());
    return 0;
}

/// Streams one line per diagnosed fault to stderr (`--progress`).
class progress_printer final : public campaign_observer {
  public:
    explicit progress_printer(const cfsmdiag::system& sys) : sys_(sys) {}

    void on_campaign_begin(std::size_t planned) override {
        std::cerr << "# campaign: " << planned << " fault(s)\n";
    }
    void on_fault_done(std::size_t index,
                       const campaign_entry& entry) override {
        std::cerr << "# [" << (index + 1) << "] "
                  << describe(sys_, entry.fault) << ": "
                  << to_string(entry.outcome) << "\n";
    }
    void on_campaign_end(const campaign_stats&,
                         const campaign_metrics& metrics) override {
        std::cerr << "# done in " << fmt_double(metrics.wall_total, 2)
                  << "s on " << metrics.jobs << " worker(s)\n";
    }

  private:
    const cfsmdiag::system& sys_;
};

struct campaign_cli_args {
    std::string system_path;
    campaign_options options;
    std::string json_path;  ///< empty = human-readable summary only
    bool progress = false;
    // Checkpointed-sweep mode (engaged by --checkpoint).
    std::string checkpoint_path;
    std::string spill_path;
    std::size_t checkpoint_every_entries = 1024;
    double checkpoint_every_seconds = 0.0;
    bool resume = false;
    /// Test seam for the kill/resume CI stage: SIGKILL this process after
    /// the N-th emitted entry, as abruptly as a crash would.
    std::optional<std::size_t> abort_after;
};

/// campaign <system-file> [max] [--jobs N] [--max-faults N] [--seed S]
/// [--json <path>] [--progress] [--max-joint-states N] [--flaky R]
/// [--flaky-seed S] [--retries N] [--votes N] [--retry-deadline-ms N]
/// [--deadline-ms N] [--entry-deadline-ms N] [--entry-steps N]
/// [--max-memory-mb N]
/// [--checkpoint <path>] [--checkpoint-every <n|Ns>] [--spill <path>]
/// [--resume] [--abort-after N] — the bare positional [max] is the
/// pre-engine spelling and keeps old invocations working.
campaign_cli_args parse_campaign_args(const std::vector<std::string>& args) {
    campaign_cli_args out;
    out.system_path = args[1];
    std::uint64_t flaky_seed = 1;
    double flaky_rate = 0.0;
    bool flaky_set = false;
    bool cadence_set = false;
    auto value_of = [&](std::size_t& i, const std::string& flag) {
        if (i + 1 >= args.size())
            throw usage_error("campaign: " + flag + " needs a value");
        return args[++i];
    };
    for (std::size_t i = 2; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--jobs") {
            const std::string v = value_of(i, a);
            if (v == "auto") {
                out.options.jobs = 0;  // engine: hardware concurrency
            } else {
                out.options.jobs = parse_count("campaign: --jobs", v);
                if (out.options.jobs == 0)
                    throw usage_error(
                        "campaign: --jobs expects a positive worker count "
                        "or 'auto', got '0'");
            }
        } else if (a == "--max-faults") {
            out.options.max_faults =
                parse_count("campaign: --max-faults", value_of(i, a));
        } else if (a == "--seed") {
            out.options.seed =
                parse_count("campaign: --seed", value_of(i, a));
        } else if (a == "--json") {
            out.json_path = value_of(i, a);
        } else if (a == "--progress") {
            out.progress = true;
        } else if (a == "--max-joint-states") {
            out.options.diag.max_joint_states = parse_count(
                "campaign: --max-joint-states", value_of(i, a));
        } else if (a == "--flaky") {
            // Drop+garble at R, hangs and reset faults at R/10 (see
            // flakiness_profile::uniform).
            flaky_rate = parse_rate("campaign: --flaky", value_of(i, a));
            flaky_set = true;
        } else if (a == "--flaky-seed") {
            flaky_seed =
                parse_count("campaign: --flaky-seed", value_of(i, a));
        } else if (a == "--retries") {
            out.options.retry.max_retries =
                parse_count("campaign: --retries", value_of(i, a));
        } else if (a == "--votes") {
            out.options.retry.votes =
                parse_count("campaign: --votes", value_of(i, a));
        } else if (a == "--deadline-ms") {
            // Campaign-wide wall-clock budget: on expiry the watchdog
            // cancels the run and every unfinished fault reports a
            // classified timed-out entry (exit code 3, like SIGINT).
            const std::uint64_t ms =
                parse_count("campaign: --deadline-ms", value_of(i, a));
            if (ms == 0)
                throw usage_error(
                    "campaign: --deadline-ms expects a positive "
                    "millisecond count, got '0'");
            out.options.budget.campaign_deadline =
                std::chrono::milliseconds(ms);
        } else if (a == "--entry-deadline-ms") {
            const std::uint64_t ms =
                parse_count("campaign: --entry-deadline-ms", value_of(i, a));
            if (ms == 0)
                throw usage_error(
                    "campaign: --entry-deadline-ms expects a positive "
                    "millisecond count, got '0'");
            out.options.budget.entry_deadline =
                std::chrono::milliseconds(ms);
        } else if (a == "--entry-steps") {
            // Deterministic per-entry budget (counted in governed steps,
            // not wall-clock) — the reproducible way to exercise the
            // degradation ladder.
            const std::uint64_t steps =
                parse_count("campaign: --entry-steps", value_of(i, a));
            if (steps == 0)
                throw usage_error(
                    "campaign: --entry-steps expects a positive step "
                    "count, got '0'");
            out.options.budget.entry_step_quota = steps;
        } else if (a == "--max-memory-mb") {
            const std::uint64_t mb =
                parse_count("campaign: --max-memory-mb", value_of(i, a));
            constexpr std::uint64_t mib = 1024 * 1024;
            if (mb == 0 || mb > SIZE_MAX / mib)
                throw usage_error(
                    "campaign: --max-memory-mb expects a positive "
                    "megabyte count below " +
                    std::to_string(SIZE_MAX / mib) + ", got '" +
                    std::to_string(mb) + "'");
            out.options.budget.entry_memory_bytes =
                static_cast<std::size_t>(mb * mib);
        } else if (a == "--retry-deadline-ms") {
            // Per-fault deadline of the resilient-oracle retry policy
            // (previously spelled --deadline-ms, which now names the
            // campaign-wide budget above).
            out.options.retry.deadline_ms = parse_count(
                "campaign: --retry-deadline-ms", value_of(i, a));
        } else if (a == "--checkpoint") {
            out.checkpoint_path = value_of(i, a);
        } else if (a == "--checkpoint-every") {
            // "250" = every 250 entries; "30s" / "2.5s" = every 30 / 2.5
            // seconds (whichever cadence is chosen, the other is off).
            const std::string v = value_of(i, a);
            cadence_set = true;
            if (!v.empty() && v.back() == 's') {
                double seconds = 0.0;
                std::size_t used = 0;
                try {
                    seconds = std::stod(v, &used);
                } catch (const std::exception&) {
                    used = 0;
                }
                if (used + 1 != v.size() || !(seconds > 0.0))
                    throw usage_error(
                        "campaign: --checkpoint-every expects a positive "
                        "entry count or a seconds value like '30s', got '" +
                        v + "'");
                out.checkpoint_every_seconds = seconds;
                out.checkpoint_every_entries = 0;
            } else {
                out.checkpoint_every_entries =
                    parse_count("campaign: --checkpoint-every", v);
            }
        } else if (a == "--spill") {
            out.spill_path = value_of(i, a);
        } else if (a == "--resume") {
            out.resume = true;
        } else if (a == "--abort-after") {
            out.abort_after =
                parse_count("campaign: --abort-after", value_of(i, a));
        } else if (!a.empty() && a[0] != '-' && !out.options.max_faults) {
            out.options.max_faults = parse_count("campaign: [max-faults]", a);
        } else {
            throw usage_error("campaign: unknown flag '" + a + "'");
        }
    }
    if (flaky_set)
        out.options.flaky = flakiness_profile::uniform(flaky_rate,
                                                       flaky_seed);
    if (out.checkpoint_path.empty()) {
        // Sweep-only flags are meaningless without a checkpoint file;
        // silently ignoring them would look like a resumable run that isn't.
        const char* orphan = out.resume               ? "--resume"
                             : !out.spill_path.empty() ? "--spill"
                             : out.abort_after         ? "--abort-after"
                             : cadence_set             ? "--checkpoint-every"
                                                       : nullptr;
        if (orphan)
            throw usage_error(std::string("campaign: ") + orphan +
                              " requires --checkpoint <path>");
    }
    return out;
}

/// SIGINT/SIGTERM request a graceful sweep stop: the handler only flips a
/// flag; the sweep's should_stop predicate polls it between entries and the
/// final snapshot is flushed on the normal exit path (async-signal-safe by
/// construction — no I/O happens in the handler).
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void request_stop(int) { g_stop_requested = 1; }

void print_campaign_summary(const campaign_stats& stats,
                            const campaign_metrics& metrics) {
    std::cout << "faults: " << stats.total << ", detected: "
              << stats.detected << ", localized: " << stats.localized
              << " (+" << stats.localized_equiv << " up to equivalence)"
              << ", sound: " << stats.sound << "\n";
    if (stats.errored > 0 || stats.inconclusive_unreliable > 0 ||
        stats.retries > 0 || stats.quarantined_runs > 0) {
        std::cout << "reliability: " << stats.inconclusive_unreliable
                  << " inconclusive (unreliable), " << stats.errored
                  << " errored, " << stats.quarantined_runs
                  << " quarantined run(s), " << stats.retries
                  << " retrie(s), " << stats.transient_failures
                  << " transient failure(s)\n";
    }
    if (stats.inconclusive_resource > 0 || stats.timed_out > 0) {
        std::cout << "budget: " << stats.inconclusive_resource
                  << " inconclusive (resource), " << stats.timed_out
                  << " timed out\n";
    }
    std::cout << "mean additional tests: "
              << fmt_double(stats.mean_additional_tests, 2)
              << ", mean additional inputs: "
              << fmt_double(stats.mean_additional_inputs, 2) << "\n";
    std::cout << "cost: " << metrics.replays << " replays, "
              << metrics.simulated_steps << " simulated steps, "
              << metrics.oracle_executions << " oracle executions, "
              << metrics.oracle_inputs << " oracle inputs, "
              << fmt_double(metrics.wall_total, 2) << "s on "
              << metrics.jobs << " worker(s)\n";
    std::cout << "replay cache: " << metrics.cache_case_skips
              << " case skips, " << metrics.cache_suffix_replays
              << " suffix replays\n";
    std::cout << "discrimination: " << metrics.discrim_joint_states
              << " joint states, " << metrics.discrim_bfs_searches
              << " searches, memo " << metrics.discrim_memo_hits
              << " hits / " << metrics.discrim_memo_misses << " misses\n";
}

void write_campaign_json(const std::string& path, const cfsmdiag::system& sys,
                         const campaign_stats& stats,
                         const campaign_metrics& metrics) {
    std::ofstream jout(path);
    detail::require(jout.good(),
                    [&] { return "cannot write file: " + path; });
    // The streaming overload renders entry-by-entry, so the report costs
    // one entry of memory even for very large campaigns.
    campaign_to_json(jout, sys, stats, metrics);
    jout << "\n";
}

int run_checkpointed_sweep(const campaign_cli_args& cli,
                           const cfsmdiag::system& sys,
                           const test_suite& suite,
                           std::vector<single_transition_fault> faults) {
    sweep_options sw;
    sw.campaign = cli.options;
    sw.checkpoint_path = cli.checkpoint_path;
    sw.spill_path = cli.spill_path;
    sw.checkpoint_every_entries = cli.checkpoint_every_entries;
    sw.checkpoint_every_seconds = cli.checkpoint_every_seconds;
    sw.resume = cli.resume;

    progress_printer progress(sys);
    if (cli.progress) sw.observer = &progress;

    // Ctrl-C / kill(1) end the sweep at the next entry boundary with a
    // final snapshot on disk; a second Ctrl-C during the drain still only
    // sets the flag, so the snapshot protocol is never interrupted midway
    // by us (SIGKILL of course can — that is what resume is for).
    g_stop_requested = 0;
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);
    std::size_t emitted = 0;
    sw.should_stop = [&]() {
        if (cli.abort_after && ++emitted >= *cli.abort_after)
            std::raise(SIGKILL);  // test seam: die as abruptly as a crash
        return g_stop_requested != 0;
    };

    const sweep_result result = run_sweep(sys, suite, faults, sw);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    if (!cli.json_path.empty())
        write_campaign_json(cli.json_path, sys, result.stats,
                            result.metrics);
    const std::size_t planned = std::min(
        faults.size(), cli.options.max_faults.value_or(faults.size()));
    std::cout << "sweep: " << result.completed << "/" << planned
              << " faults done, " << result.snapshots_written
              << " snapshot(s) written";
    if (result.resumed_from > 0)
        std::cout << ", resumed from " << result.resumed_from;
    if (result.fell_back)
        std::cout << " (primary snapshot was torn; used .prev)";
    std::cout << "\n";
    print_campaign_summary(result.stats, result.metrics);
    if (result.interrupted) {
        std::cout << "interrupted — resume with --resume to continue from "
                  << result.completed << "\n";
        return 3;
    }
    return result.stats.sound == result.stats.detected ? 0 : 1;
}

int cmd_campaign(const campaign_cli_args& cli) {
    const auto sys = parse_system(slurp(cli.system_path));
    validate_structure(sys);
    const auto suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);

    if (!cli.checkpoint_path.empty())
        return run_checkpointed_sweep(cli, sys, suite, std::move(faults));

    campaign_engine engine(sys, suite, std::move(faults), cli.options);
    progress_printer progress(sys);
    if (cli.progress) engine.attach(progress);
    const campaign_stats& stats = engine.run();
    const campaign_metrics& metrics = engine.metrics();

    if (!cli.json_path.empty())
        write_campaign_json(cli.json_path, sys, stats, metrics);
    print_campaign_summary(stats, metrics);
    if (metrics.budget_stopped) {
        // Same contract as the sweep SIGINT path: the run ended early but
        // every planned fault has a classified entry.
        std::cout << "stopped by --deadline-ms — " << stats.timed_out
                  << " fault(s) timed out\n";
        return 3;
    }
    return stats.sound == stats.detected ? 0 : 1;
}

int cmd_random(std::uint64_t seed, std::size_t machines,
               std::size_t states) {
    rng random(seed);
    random_system_options opts;
    opts.machines = machines;
    opts.states_per_machine = states;
    opts.extra_transitions = 2 * states;
    std::cout << write_system(random_system(opts, random));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() >= 2 && args[0] == "show") return cmd_show(args[1]);
        if (args.size() >= 2 && args[0] == "dot") return cmd_dot(args[1]);
        if (args.size() >= 3 && args[0] == "gen")
            return cmd_gen(args[1], args[2]);
        if (args.size() >= 4 && args[0] == "diagnose") {
            const bool as_json =
                args.size() >= 5 && args[4] == "--json";
            return cmd_diagnose(args[1], args[2], args[3], as_json);
        }
        if (args.size() >= 3 && args[0] == "witness")
            return cmd_witness(args[1], args[2]);
        if (args.size() >= 3 && args[0] == "score")
            return cmd_score(args[1], args[2]);
        if (args.size() >= 3 && args[0] == "reduce")
            return cmd_reduce(args[1], args[2]);
        if (args.size() >= 2 && args[0] == "campaign")
            return cmd_campaign(parse_campaign_args(args));
        if (args.size() >= 2 && args[0] == "random")
            return cmd_random(
                parse_count("random: <seed>", args[1]),
                args.size() >= 3 ? parse_count("random: [machines]", args[2])
                                 : 3,
                args.size() >= 4 ? parse_count("random: [states]", args[3])
                                 : 4);
    } catch (const cfsmdiag::usage_error& e) {
        std::cerr << "error: " << e.what()
                  << "\n(run cfsmdiag without arguments for usage)\n";
        return 2;
    } catch (const cfsmdiag::error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    } catch (const std::exception& e) {
        // Residual stdlib failures (I/O, allocation) exit like any other
        // error instead of aborting.
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    std::cerr
        << "usage:\n"
           "  cfsmdiag show <system-file>\n"
           "  cfsmdiag dot <system-file>\n"
           "  cfsmdiag gen <system-file> tour|w|wp|uio|ds|diagnostic\n"
           "  cfsmdiag diagnose <system-file> <suite-file> <fault-spec> "
           "[--json]\n"
           "  cfsmdiag witness <system-file> <fault-spec>\n"
           "  cfsmdiag score <system-file> <suite-file>\n"
           "  cfsmdiag reduce <system-file> <suite-file>\n"
           "  cfsmdiag campaign <system-file> [max-faults] [--jobs N]\n"
           "                    [--max-faults N] [--seed S] [--json <path>]\n"
           "                    [--progress] [--max-joint-states N]\n"
           "                    [--flaky R] [--flaky-seed S] [--retries N]\n"
           "                    [--votes N] [--retry-deadline-ms N]\n"
           "                    [--deadline-ms N] (campaign-wide wall-clock\n"
           "                     budget; unfinished faults become classified\n"
           "                     timed-out entries and the exit code is 3)\n"
           "                    [--entry-deadline-ms N] [--entry-steps N]\n"
           "                    [--max-memory-mb N] (per-fault budgets; on\n"
           "                     exhaustion the diagnosis degrades to an\n"
           "                     inconclusive-resource verdict, never a\n"
           "                     wrong or missing entry)\n"
           "                    [--checkpoint <path>]\n"
           "                    [--checkpoint-every <n|Ns>] (entries, or\n"
           "                     seconds with an 's' suffix; default 1024)\n"
           "                    [--spill <path>] (JSONL, one entry per "
           "line)\n"
           "                    [--resume] [--abort-after N]\n"
           "    with --checkpoint, the campaign runs as a crash-safe sweep:\n"
           "    SIGINT/SIGTERM flush a final snapshot and exit 3; --resume\n"
           "    continues byte-identically from the last good snapshot\n"
           "  cfsmdiag random <seed> [machines] [states]\n";
    return 2;
}
