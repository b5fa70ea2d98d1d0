// Fault-injection campaigns: the extended evaluation of the paper's
// guarantee.
//
// For every fault in a given universe: build the IUT (spec ⊕ fault), run the
// full diagnostic pipeline, and score the result —
//   - detected: the suite produced at least one symptom,
//   - sound: the true fault (or an observationally equivalent hypothesis)
//     is among the final diagnoses,
//   - exact: the diagnosis localized to a single hypothesis (or an
//     equivalence class containing the truth).
// Aggregates feed bench/fault_campaign and the property tests.
//
// This header defines the shared campaign vocabulary (options, per-fault
// entries, aggregate stats) plus the serial convenience `run_campaign()`.
// The session API — sharded execution across a worker pool, progress
// observers, machine-readable metrics — lives in gen/engine.hpp;
// `run_campaign()` is a thin wrapper over it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "diag/diagnoser.hpp"
#include "fault/enumerate.hpp"
#include "tester/flaky_sut.hpp"
#include "tester/resilient.hpp"
#include "testgen/testcase.hpp"

namespace cfsmdiag {

/// Resource-governance knobs of one campaign (util/budget.hpp).  All
/// disabled by default — a campaign with every knob unset computes exactly
/// what the pre-budget engine did, which is what the budgets-off
/// byte-identity tests pin.
struct campaign_budget {
    /// Wall-clock deadline for the whole run().  On expiry a watchdog
    /// thread cancels every worker; faults already in flight finish as
    /// deterministic classified `timed_out` entries and faults never
    /// started are synthesized as such, so the campaign still reports one
    /// classified entry per planned fault.  Not part of the sweep options
    /// fingerprint: like SIGINT timing, it decides *where* a run stops,
    /// never what any entry contains.
    std::optional<std::chrono::milliseconds> campaign_deadline;
    /// Per-entry wall-clock deadline enforced cooperatively inside
    /// diagnose(); exhaustion walks the degradation ladder and ends, at
    /// worst, in an `inconclusive_resource` verdict — never a missing or
    /// wrong entry.
    std::optional<std::chrono::milliseconds> entry_deadline;
    /// Per-entry governed-step quota (budget polls: replays, BFS
    /// expansions, suite cases).  Deterministic, unlike the deadlines: a
    /// cross-fault discrimination-memo hit is charged the steps of the
    /// search it stands in for, so an entry's count — and where the quota
    /// trips — does not depend on jobs, on resume segmentation or on what
    /// the context's memo already holds (DESIGN.md §5h piece 4).
    std::optional<std::uint64_t> entry_step_quota;
    /// Per-entry memory quota in bytes, accounted from bit_arena and BFS
    /// frontier capacities.  A memo hit allocates no frontier and notes
    /// none, so unlike the step quota this one can trip on a cold context
    /// where a warm one passes.
    std::optional<std::size_t> entry_memory_bytes;

    /// True when any per-entry limit is set (these affect entry *content*
    /// and therefore belong in the sweep options fingerprint).
    [[nodiscard]] bool entry_limits() const noexcept {
        return entry_deadline || entry_step_quota || entry_memory_bytes;
    }
    [[nodiscard]] bool any() const noexcept {
        return campaign_deadline || entry_limits();
    }
};

struct campaign_options {
    diagnoser_options diag;
    /// Stop after this many faults (for time-boxed benches); nullopt runs
    /// the whole universe.
    std::optional<std::size_t> max_faults;
    /// Worker threads for the campaign engine; 0 = hardware concurrency.
    /// Results are byte-identical for every value (entries are merged in
    /// fault-index order).
    std::size_t jobs = 1;
    /// Non-zero: shuffle the *execution* order of faults with this seed so
    /// expensive faults spread across shards.  Output order is unaffected —
    /// entries always come back in fault-index order.
    std::uint64_t seed = 0;
    /// When set, every fault's IUT is wrapped in a flaky_sut (fault
    /// injection at the lab boundary) and driven through a resilient_oracle
    /// with `retry`.  The profile's seed is mixed with the fault index, so
    /// each fault sees its own — but thread-count-independent — flakiness
    /// stream, keeping entries byte-identical for any `jobs`.
    std::optional<flakiness_profile> flaky;
    /// Retry/vote/budget policy for the resilient path.  Also honoured
    /// without `flaky` when `retry.deadline_ms > 0` (per-fault deadlines
    /// apply to clean campaigns too).
    retry_policy retry;
    /// Test seam / crash isolation hook: invoked with the fault index just
    /// before each diagnosis.  Anything it throws is captured into that
    /// fault's `errored` entry; the rest of the campaign is unaffected.
    std::function<void(std::size_t)> fault_hook;
    /// Fold entries into the aggregate stats as they complete instead of
    /// retaining them: stats().entries stays empty and engine memory stays
    /// flat at any universe size (out-of-order finishers are buffered only
    /// until the in-order cursor reaches them, a window bounded by `jobs`
    /// when the execution order is unshuffled).  Per-entry consumers attach
    /// a campaign_observer — callbacks still arrive, in fault-index order —
    /// or use the checkpointed sweep's JSONL spill (gen/checkpoint.hpp).
    /// Combining streaming with a non-zero `seed` shuffle works but lets
    /// the reorder buffer grow toward the universe size; the sweep layer
    /// therefore pins seed = 0.
    bool stream_entries = false;
    /// Offset added to every fault index the engine exposes (fault_hook,
    /// flakiness-seed mixing, observer callbacks).  A resumed sweep runs
    /// the remaining faults as a fresh engine over a sub-range; setting the
    /// base to the resume point keeps each fault's hook index and flaky
    /// stream equal to the uninterrupted run's, which is what makes the
    /// resume byte-identical.
    std::size_t index_base = 0;
    /// Deadlines / quotas / watchdog cancellation for this campaign.
    campaign_budget budget;
};

/// One fault's scored run.  Every field is a deterministic function of
/// (spec, suite, fault, diag options) — never of jobs/seed/wall-clock — so
/// parallel and serial campaigns compare equal entry for entry.
struct campaign_entry {
    single_transition_fault fault;
    diagnosis_outcome outcome = diagnosis_outcome::passed;
    bool detected = false;
    bool sound = false;
    std::size_t initial_diagnoses = 0;
    std::size_t final_diagnoses = 0;
    std::size_t additional_tests = 0;
    std::size_t additional_inputs = 0;
    /// Hypothesis replays (Step 5B/6 suite re-runs against mutated specs).
    std::size_t replays = 0;
    /// oracle::execute() calls / total inputs applied to this fault's IUT.
    std::size_t oracle_executions = 0;
    std::size_t oracle_inputs = 0;
    bool escalated = false;
    bool used_fallback = false;
    /// Lab-reliability counters for this fault's run (all zero on the
    /// clean, non-flaky path).
    std::size_t retries = 0;
    std::size_t transient_failures = 0;
    std::size_t quarantined_cases = 0;
    std::size_t quarantined_tests = 0;
    /// The diagnosis itself failed (threw): the entry records the error
    /// instead of a verdict and is excluded from detected/sound math.
    /// A campaign never dies with a worker — one fault's crash is isolated
    /// here.
    bool errored = false;
    std::string error_kind;     ///< "timeout" | "budget" | "transient" |
                                ///< "model" | "resource" | "error" |
                                ///< "exception"
    std::string error_message;
    /// The campaign-wide deadline (or watchdog) cancelled this fault before
    /// it produced a verdict.  The entry's content is deterministic (a
    /// fixed message, no timing data), but *which* faults time out depends
    /// on wall-clock — the sweep layer therefore stops its completed
    /// prefix before the first timed-out entry so a resume re-runs exactly
    /// the starved indices.  Excluded from detected/sound math like
    /// `errored`.
    bool timed_out = false;

    /// Field-wise comparison — the determinism tests and benches assert
    /// parallel runs reproduce serial entries exactly.
    friend auto operator<=>(const campaign_entry&,
                            const campaign_entry&) = default;
};

struct campaign_stats {
    std::size_t total = 0;
    std::size_t detected = 0;
    std::size_t localized = 0;          ///< outcome == localized
    std::size_t localized_equiv = 0;    ///< localized up to equivalence
    std::size_t ambiguous = 0;
    std::size_t no_hypothesis = 0;
    /// Runs that refused a verdict because the lab was too unreliable.
    /// Not counted as detected — degradation must not look like detection.
    std::size_t inconclusive_unreliable = 0;
    /// Runs whose diagnosis threw (see campaign_entry::errored).  Excluded
    /// from detected/sound math entirely.
    std::size_t errored = 0;
    /// Runs whose resource budget ran out undiscriminated
    /// (outcome == inconclusive_resource).  Like inconclusive_unreliable,
    /// never counted as detected — a starved run must not read as a catch.
    std::size_t inconclusive_resource = 0;
    /// Runs cancelled by the campaign deadline / watchdog before any
    /// verdict (campaign_entry::timed_out).  Excluded like errored.
    std::size_t timed_out = 0;
    std::size_t sound = 0;              ///< truth among final diagnoses
    std::size_t escalations = 0;
    std::size_t fallbacks = 0;
    /// Lab-reliability totals summed over all entries.
    std::size_t retries = 0;
    std::size_t transient_failures = 0;
    std::size_t quarantined_runs = 0;   ///< suite runs + Step-6 tests
    double mean_initial_diagnoses = 0.0;  ///< over detected faults
    double mean_final_diagnoses = 0.0;
    double mean_additional_tests = 0.0;
    double mean_additional_inputs = 0.0;

    std::vector<campaign_entry> entries;
};

/// Incremental, exact fold of campaign entries into aggregate statistics —
/// the streaming form of aggregate_entries().  All state is integral
/// (means are derived only in finish()), so a fold persisted mid-campaign
/// and restored later reproduces the uninterrupted aggregates bit for bit;
/// the sweep checkpoint layer (gen/checkpoint.hpp) serializes exactly
/// these fields.  Folding is order-independent across entries.
struct campaign_aggregator {
    std::size_t total = 0;
    std::size_t detected = 0;
    std::size_t localized = 0;
    std::size_t localized_equiv = 0;
    std::size_t ambiguous = 0;
    std::size_t no_hypothesis = 0;
    std::size_t inconclusive_unreliable = 0;
    std::size_t errored = 0;
    std::size_t inconclusive_resource = 0;
    std::size_t timed_out = 0;
    std::size_t sound = 0;
    std::size_t escalations = 0;
    std::size_t fallbacks = 0;
    std::size_t retries = 0;
    std::size_t transient_failures = 0;
    std::size_t quarantined_runs = 0;
    /// Integer sums over detected entries; finish() turns them into the
    /// mean_* fields.
    std::size_t sum_initial_diagnoses = 0;
    std::size_t sum_final_diagnoses = 0;
    std::size_t sum_additional_tests = 0;
    std::size_t sum_additional_inputs = 0;

    /// Folds one scored entry into the counters.
    void add(const campaign_entry& entry);

    /// The aggregate stats of everything folded so far (entries empty).
    [[nodiscard]] campaign_stats finish() const;

    friend auto operator<=>(const campaign_aggregator&,
                            const campaign_aggregator&) = default;
};

/// Recomputes the aggregate counters from `entries` (same math the engine
/// applies after its deterministic merge; implemented as a
/// campaign_aggregator fold).
[[nodiscard]] campaign_stats aggregate_entries(
    std::vector<campaign_entry> entries);

/// Runs the campaign over `faults` on the calling thread.  Thin wrapper
/// over campaign_engine honouring `options` verbatim (default jobs = 1, so
/// pre-engine callers stay serial and unchanged).
[[nodiscard]] campaign_stats run_campaign(
    const system& spec, const test_suite& suite,
    const std::vector<single_transition_fault>& faults,
    const campaign_options& options = {});

}  // namespace cfsmdiag
