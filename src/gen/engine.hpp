// Parallel fault-campaign engine: the session API behind run_campaign().
//
// A campaign is an embarrassingly parallel workload — one independent
// Steps 1–6 diagnosis per fault in the universe — so the engine shards the
// fault list across a fixed-size worker pool (util/thread_pool.hpp).  Each
// worker owns its own `simulated_iut`; the specification and suite are
// shared read-only (see fault/oracle.hpp for the const-safety contract).
//
// Determinism is the design constraint: entries are merged in fault-index
// order and every entry field is independent of thread count and timing, so
// an N-thread campaign is byte-identical to a serial one.  Observer
// callbacks are likewise serialized in fault-index order — a completion
// cursor holds back out-of-order finishers — so progress consumers never
// need their own reordering buffer.
//
// Lifecycle:  configure (constructor) → attach observers → run() →
// collect (stats() / metrics(), or the run() return value).
//
//     campaign_engine eng(spec, suite, faults, {.jobs = 0});  // 0 = auto
//     eng.attach(my_progress_bar);
//     const campaign_stats& stats = eng.run();
//     std::cout << to_json(spec, eng.stats(), eng.metrics()).dump(true);
#pragma once

#include <iosfwd>

#include "gen/campaign.hpp"
#include "util/json.hpp"

namespace cfsmdiag {

/// Aggregate cost counters and per-stage wall-clock for one engine run.
/// Counters are deterministic; wall-clock fields are informational only.
struct campaign_metrics {
    std::size_t faults = 0;             ///< faults actually run
    std::size_t replays = 0;            ///< hypothesis replays, all faults
    std::size_t oracle_executions = 0;  ///< oracle::execute() calls
    std::size_t oracle_inputs = 0;      ///< inputs applied to IUTs
    std::size_t additional_tests = 0;   ///< Step 6 tests executed
    std::size_t additional_inputs = 0;  ///< Step 6 inputs applied
    std::size_t jobs = 1;               ///< workers the run actually used

    /// Replay-cache cost counters, measured around diagnose() only (the
    /// scoring equivalence check would dilute them).  `simulated_steps` is
    /// simulator::apply calls net of the simulated IUT's own execution — a
    /// real IUT runs in hardware, so only the algorithm's simulation work is
    /// counted.
    std::size_t simulated_steps = 0;
    std::size_t cache_case_skips = 0;       ///< cases resolved w/o simulation
    std::size_t cache_suffix_replays = 0;   ///< snapshot-restore replays

    /// Discrimination-engine cost counters (diag/discrim_engine.hpp),
    /// measured around diagnose() and the scoring equivalence checks.
    /// Campaign-wide totals are deterministic at any `jobs` (the memo
    /// computes once per distinct key under its shard lock).
    std::size_t discrim_joint_states = 0;   ///< joint states expanded (BFS)
    std::size_t discrim_memo_hits = 0;      ///< searches served by the memo
    std::size_t discrim_memo_misses = 0;    ///< searches that computed
    /// Always 0 (every memo miss runs a search).  Kept because the
    /// perfbench harness reads it, and perfbench changes only together with
    /// its benchmark definition.
    std::size_t discrim_table_answers = 0;
    std::size_t discrim_bfs_searches = 0;   ///< flat joint BFS runs

    /// Per-stage wall-clock summed across workers (seconds) — with jobs > 1
    /// the sum exceeds `wall_total`, and the ratio is the effective
    /// parallelism.  `scoring` is the truth-among-diagnoses equivalence
    /// check, which runs outside diagnose().
    stage_timings stage;
    double wall_scoring = 0.0;
    double wall_total = 0.0;  ///< end-to-end run() wall-clock

    /// The campaign-wide deadline fired and the watchdog cancelled the run
    /// (campaign_options::budget.campaign_deadline).  Every planned fault
    /// still has a classified entry (timed-out ones synthesized); the CLI
    /// maps this to exit code 3 like the sweep SIGINT path.
    bool budget_stopped = false;
};

/// Progress/metrics hook.  All callbacks are serialized (never concurrent)
/// and arrive in fault-index order regardless of `jobs`; they may be
/// invoked from any worker thread, so implementations must not assume the
/// configuring thread.  Keep them cheap — a slow observer backpressures the
/// completion cursor, not the workers, but it delays progress reporting.
class campaign_observer {
  public:
    virtual ~campaign_observer() = default;

    /// Before any fault runs; `planned` is the post-max_faults count.
    virtual void on_campaign_begin(std::size_t planned) { (void)planned; }

    /// After fault `index` (0-based, in fault-index order) is scored.
    virtual void on_fault_done(std::size_t index,
                               const campaign_entry& entry) {
        (void)index;
        (void)entry;
    }

    /// After the deterministic merge, with final stats and metrics.
    virtual void on_campaign_end(const campaign_stats& stats,
                                 const campaign_metrics& metrics) {
        (void)stats;
        (void)metrics;
    }
};

/// One campaign as a session object.
///
/// The engine runs against a spec_context — the compiled tables and Step-1
/// traces are shared read-only across all workers and all run() calls.
/// The primary constructor borrows a caller-owned context (it must outlive
/// the engine); the (spec, suite) convenience constructor builds and owns
/// one.  The fault list is copied (the session is self-contained).  run()
/// may be called repeatedly; each call re-runs the campaign and replaces
/// the collected results.  The engine itself is not thread-safe: configure,
/// attach, and run from one thread; the parallelism is internal.
class campaign_engine {
  public:
    campaign_engine(const spec_context& ctx,
                    std::vector<single_transition_fault> faults,
                    campaign_options options = {});

    /// Convenience: compiles a context from (spec, suite) and owns it.
    /// `spec` must outlive the engine.
    campaign_engine(const system& spec, test_suite suite,
                    std::vector<single_transition_fault> faults,
                    campaign_options options = {});

    /// The context this engine diagnoses against.
    [[nodiscard]] const spec_context& context() const noexcept {
        return *ctx_;
    }

    /// Registers a progress observer (not owned; must outlive run()).
    void attach(campaign_observer& observer);

    /// Runs the campaign; returns the merged stats (also via stats()).
    const campaign_stats& run();

    /// Results of the last run().  Empty-default before the first run.
    [[nodiscard]] const campaign_stats& stats() const noexcept {
        return stats_;
    }
    [[nodiscard]] const campaign_metrics& metrics() const noexcept {
        return metrics_;
    }

    /// Faults the next run() will execute (after max_faults trimming).
    [[nodiscard]] std::size_t planned_faults() const noexcept;

  private:
    /// Per-fault deltas of the thread-local replay cost counters, taken
    /// around the diagnose() call only.
    struct replay_cost {
        std::size_t simulated_steps = 0;
        std::size_t cache_case_skips = 0;
        std::size_t cache_suffix_replays = 0;
        std::size_t discrim_joint_states = 0;
        std::size_t discrim_memo_hits = 0;
        std::size_t discrim_memo_misses = 0;
        std::size_t discrim_bfs_searches = 0;
    };

    /// Runs one fault's diagnosis; never throws.  Anything the diagnosis
    /// (or the options' fault_hook) throws is captured into an `errored`
    /// entry so a single crashing fault cannot take the campaign down.
    /// `index` is the fault's position in the universe — it parameterizes
    /// the fault_hook and the per-fault flakiness seed.
    /// `cancel`, when non-null, is the campaign watchdog's token: it is
    /// wired into the entry's budget so cancellation cuts through the
    /// diagnosis, which then surfaces here as a classified timed-out entry.
    campaign_entry run_one(std::size_t index,
                           const single_transition_fault& fault,
                           stage_timings& stage_acc, double& scoring_acc,
                           replay_cost& cost_acc,
                           const cancel_token* cancel) const;

    /// Engaged only by the (spec, suite) convenience constructor.
    std::optional<spec_context> owned_ctx_;
    const spec_context* ctx_;
    std::vector<single_transition_fault> faults_;
    campaign_options options_;
    std::vector<campaign_observer*> observers_;
    campaign_stats stats_;
    campaign_metrics metrics_;
};

/// Machine-readable dump of a finished campaign: aggregate counters,
/// per-stage wall-clock, and one record per entry (faults rendered with
/// describe()).  Deterministic apart from the wall-clock fields.
[[nodiscard]] json_value campaign_to_json(const system& spec,
                                          const campaign_stats& stats,
                                          const campaign_metrics& metrics);

/// One entry as a JSON record — the row schema of campaign_to_json's
/// "entries" array, and of the sweep layer's JSONL spill (one compact row
/// per line).
[[nodiscard]] json_value campaign_entry_to_json(const system& spec,
                                                const campaign_entry& e);

/// Streaming form of campaign_to_json: writes the same bytes as
/// `campaign_to_json(...).dump(true)` but emits entry rows one at a time
/// instead of materializing the whole document — peak memory is one row,
/// not the report.  The CLI's --json path uses this.
void campaign_to_json(std::ostream& out, const system& spec,
                      const campaign_stats& stats,
                      const campaign_metrics& metrics);

}  // namespace cfsmdiag
