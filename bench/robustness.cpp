// Resource-governance benchmarks: the cost of budget checks when budgets
// never fire, and the behaviour of the campaign deadline when they do.
//
// Three blocks, written to BENCH_robustness.json:
//   - overhead (asserted): the Figure-1 campaign with generous budgets
//     installed (polls taken, nothing ever trips) vs the unbudgeted run.
//     The poll sites are a thread-local load and a branch, so the
//     governed run must cost within a few percent of the plain one;
//   - degradation curve: the sliding-window campaign under a ladder of
//     campaign deadlines — how many faults complete vs how many are
//     classified timed-out as the deadline tightens.  Every planned fault
//     must have a classified entry at every rung (asserted);
//   - deadline termination (asserted): an aggressive deadline on the
//     sliding-window model — run() must return within 2x the deadline,
//     with every entry classified.
//
// Every timed run gets a fresh spec_context (built before the clock
// starts), so each row is a cold run: no row reuses another's memo.
// `--quick` shrinks the models and loosens the overhead threshold for CI
// smoke (tiny runs are noise-dominated); the full run asserts the 5%
// budget-check overhead criterion.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "cfsmdiag.hpp"
#include "models/models.hpp"

namespace {

using namespace cfsmdiag;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct timed_run {
    double wall_s = 0.0;
    campaign_stats stats;
    bool budget_stopped = false;
};

timed_run run_once(const cfsmdiag::system& spec, const test_suite& suite,
                   const std::vector<single_transition_fault>& faults,
                   const campaign_options& options) {
    const spec_context ctx(spec, suite);
    campaign_engine engine(ctx, faults, options);
    const double t0 = now_s();
    timed_run out;
    out.stats = engine.run();
    out.wall_s = now_s() - t0;
    out.budget_stopped = engine.metrics().budget_stopped;
    return out;
}

/// Best-of-N wall-clock for one configuration (min absorbs scheduler
/// noise far better than a mean on sub-second runs).
double best_wall(const cfsmdiag::system& spec, const test_suite& suite,
                 const std::vector<single_transition_fault>& faults,
                 const campaign_options& options, int reps) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i)
        best = std::min(best, run_once(spec, suite, faults, options).wall_s);
    return best;
}

/// True when every planned fault has a classified entry: a verdict, an
/// isolated error, or a deterministic timed-out marker — never a gap.
bool all_classified(const campaign_stats& stats, std::size_t planned) {
    return stats.total == planned && stats.entries.size() == planned;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    bool ok = true;
    json_value root = json_value::object();
    root.set("bench", json_value::string("robustness"));
    root.set("quick", json_value::boolean(quick));

    // --- block 1: budget-check overhead on the Figure-1 campaign --------
    {
        const auto ex = paperex::make_paper_example();
        const auto faults = enumerate_all_faults(ex.spec);
        const int reps = quick ? 3 : 9;

        campaign_options plain;
        campaign_options governed;
        governed.budget.entry_deadline =
            std::chrono::milliseconds(3'600'000);
        governed.budget.entry_step_quota = 1ull << 60;
        governed.budget.entry_memory_bytes = std::size_t{1} << 46;

        const double wall_plain =
            best_wall(ex.spec, ex.suite, faults, plain, reps);
        const double wall_governed =
            best_wall(ex.spec, ex.suite, faults, governed, reps);
        const double overhead =
            wall_plain > 0.0 ? wall_governed / wall_plain - 1.0 : 0.0;
        // Sub-millisecond quick runs are noise-dominated; the 5% criterion
        // is asserted on the full run.
        const double threshold = quick ? 0.50 : 0.05;
        const bool pass = overhead <= threshold;
        ok = ok && pass;
        std::cout << "budget-check overhead: plain "
                  << wall_plain * 1e3 << " ms, governed "
                  << wall_governed * 1e3 << " ms -> "
                  << overhead * 100.0 << "% (threshold "
                  << threshold * 100.0 << "%)"
                  << (pass ? "" : "  — OVERHEAD BUG") << "\n";

        json_value row = json_value::object();
        row.set("faults", json_value::number(
                              static_cast<double>(faults.size())));
        row.set("reps", json_value::number(static_cast<double>(reps)));
        row.set("wall_plain_s", json_value::number(wall_plain));
        row.set("wall_governed_s", json_value::number(wall_governed));
        row.set("overhead_frac", json_value::number(overhead));
        row.set("threshold_frac", json_value::number(threshold));
        row.set("pass", json_value::boolean(pass));
        root.set("overhead", std::move(row));
    }

    // --- blocks 2+3: campaign deadline on the sliding-window model ------
    {
        const cfsmdiag::system spec = models::sliding_window(quick ? 4 : 8);
        const test_suite suite = transition_tour(spec).suite;
        auto faults = enumerate_all_faults(spec);
        const std::size_t planned = faults.size();
        std::cout << "\nsliding_window(" << (quick ? 4 : 8) << "): "
                  << planned << " faults\n";

        // Uncapped baseline: how long the full campaign takes.
        campaign_options free_run;
        free_run.jobs = 2;
        const timed_run base = run_once(spec, suite, faults, free_run);
        std::cout << "uncapped campaign: " << base.wall_s * 1e3
                  << " ms\n";

        // Degradation curve: deadlines from "starves almost everything"
        // up past the uncapped wall time.
        json_value curve = json_value::array();
        const double base_ms = base.wall_s * 1e3;
        for (const double frac : {0.1, 0.25, 0.5, 1.0, 2.0}) {
            const auto deadline = std::chrono::milliseconds(
                std::max<long>(2, static_cast<long>(base_ms * frac)));
            campaign_options capped;
            capped.jobs = 2;
            capped.budget.campaign_deadline = deadline;
            const timed_run got = run_once(spec, suite, faults, capped);
            const bool classified = all_classified(got.stats, planned);
            ok = ok && classified;
            const std::size_t done = got.stats.total - got.stats.timed_out;
            std::cout << "deadline " << deadline.count() << " ms: "
                      << done << "/" << planned << " completed, "
                      << got.stats.timed_out << " timed out, wall "
                      << got.wall_s * 1e3 << " ms"
                      << (classified ? "" : "  — UNCLASSIFIED ENTRY")
                      << "\n";
            json_value row = json_value::object();
            row.set("deadline_ms", json_value::number(
                                       static_cast<double>(deadline.count())));
            row.set("completed", json_value::number(
                                     static_cast<double>(done)));
            row.set("timed_out", json_value::number(
                                     static_cast<double>(got.stats.timed_out)));
            row.set("wall_s", json_value::number(got.wall_s));
            row.set("budget_stopped", json_value::boolean(got.budget_stopped));
            row.set("all_classified", json_value::boolean(classified));
            curve.push(std::move(row));
        }
        root.set("degradation_curve", std::move(curve));
        root.set("uncapped_wall_s", json_value::number(base.wall_s));
        root.set("planned_faults",
                 json_value::number(static_cast<double>(planned)));

        // Termination bound: an aggressive deadline must end the whole
        // run() within 2x the deadline (cancellation is cooperative, so
        // in-flight faults get a moment to classify — but only a moment).
        const auto aggressive = std::chrono::milliseconds(
            std::max<long>(5, static_cast<long>(base_ms * 0.15)));
        campaign_options capped;
        capped.jobs = 2;
        capped.budget.campaign_deadline = aggressive;
        const timed_run tight = run_once(spec, suite, faults, capped);
        const double bound_s =
            2.0 * static_cast<double>(aggressive.count()) / 1e3;
        const bool in_bound = tight.wall_s <= bound_s;
        const bool classified = all_classified(tight.stats, planned);
        ok = ok && in_bound && classified;
        std::cout << "aggressive deadline " << aggressive.count()
                  << " ms: wall " << tight.wall_s * 1e3 << " ms (bound "
                  << bound_s * 1e3 << " ms), every entry classified: "
                  << (classified ? "yes" : "NO")
                  << (in_bound ? "" : "  — TERMINATION BUG") << "\n";

        json_value row = json_value::object();
        row.set("deadline_ms", json_value::number(
                                   static_cast<double>(aggressive.count())));
        row.set("wall_s", json_value::number(tight.wall_s));
        row.set("bound_s", json_value::number(bound_s));
        row.set("within_2x_deadline", json_value::boolean(in_bound));
        row.set("all_classified", json_value::boolean(classified));
        root.set("termination", std::move(row));
    }

    root.set("ok", json_value::boolean(ok));
    std::ofstream jout("BENCH_robustness.json");
    jout << root.dump(true) << "\n";
    std::cout << "\nrobustness checks: "
              << (ok ? "all passed" : "FAILED") << "\n";
    return ok ? 0 : 1;
}
