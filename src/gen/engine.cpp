#include "gen/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <ostream>
#include <thread>
#include <utility>

#include "diag/discrim_engine.hpp"
#include "diag/hypotheses.hpp"
#include "fault/oracle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cfsmdiag {
namespace {

/// The truth is "found" if it appears verbatim among the final diagnoses or
/// is observationally equivalent to one of them (a black box cannot tell
/// equivalent hypotheses apart, so crediting equivalence is the honest
/// scoring).
bool truth_among(const spec_context& ctx,
                 const single_transition_fault& truth,
                 const std::vector<diagnosis>& finals) {
    if (std::find(finals.begin(), finals.end(), truth) != finals.end())
        return true;
    // The engine shares these joint searches with Step 6 through its
    // campaign-wide memo.
    return std::any_of(finals.begin(), finals.end(), [&](const diagnosis& d) {
        return observationally_equivalent(ctx.discrim(), truth, d);
    });
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

/// Splitmix64-style mix of the campaign flakiness seed with the fault
/// index: every fault gets an independent corruption stream that depends
/// only on (seed, index) — never on which worker runs it.
std::uint64_t mix_fault_seed(std::uint64_t seed, std::size_t index) noexcept {
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

void campaign_aggregator::add(const campaign_entry& entry) {
    ++total;
    retries += entry.retries;
    transient_failures += entry.transient_failures;
    quarantined_runs += entry.quarantined_cases + entry.quarantined_tests;
    if (entry.timed_out) {
        // The campaign deadline cancelled this fault before any verdict:
        // a classified placeholder, not evidence of anything.
        ++timed_out;
        return;
    }
    if (entry.errored) {
        // The diagnosis crashed: no verdict to score.  Counting it as
        // detected or unsound would poison the soundness math.
        ++errored;
        return;
    }
    if (entry.outcome == diagnosis_outcome::inconclusive_unreliable) {
        // A refusal to guess, not a detection — kept out of the
        // detected/sound buckets so degradation never reads as either
        // a catch or a misdiagnosis.
        ++inconclusive_unreliable;
        return;
    }
    if (entry.outcome == diagnosis_outcome::inconclusive_resource) {
        // The entry's own budget ran out undiscriminated — same refusal
        // semantics as the unreliable-lab outcome.
        ++inconclusive_resource;
        return;
    }
    if (!entry.detected) return;
    ++detected;
    if (entry.sound) ++sound;
    sum_initial_diagnoses += entry.initial_diagnoses;
    sum_final_diagnoses += entry.final_diagnoses;
    sum_additional_tests += entry.additional_tests;
    sum_additional_inputs += entry.additional_inputs;
    switch (entry.outcome) {
        case diagnosis_outcome::localized: ++localized; break;
        case diagnosis_outcome::localized_up_to_equivalence:
            ++localized_equiv;
            break;
        case diagnosis_outcome::ambiguous: ++ambiguous; break;
        case diagnosis_outcome::no_consistent_hypothesis:
            ++no_hypothesis;
            break;
        case diagnosis_outcome::passed: break;
        case diagnosis_outcome::inconclusive_unreliable: break;
        case diagnosis_outcome::inconclusive_resource: break;
    }
    if (entry.escalated) ++escalations;
    if (entry.used_fallback) ++fallbacks;
}

campaign_stats campaign_aggregator::finish() const {
    campaign_stats stats;
    stats.total = total;
    stats.detected = detected;
    stats.localized = localized;
    stats.localized_equiv = localized_equiv;
    stats.ambiguous = ambiguous;
    stats.no_hypothesis = no_hypothesis;
    stats.inconclusive_unreliable = inconclusive_unreliable;
    stats.errored = errored;
    stats.inconclusive_resource = inconclusive_resource;
    stats.timed_out = timed_out;
    stats.sound = sound;
    stats.escalations = escalations;
    stats.fallbacks = fallbacks;
    stats.retries = retries;
    stats.transient_failures = transient_failures;
    stats.quarantined_runs = quarantined_runs;
    if (detected > 0) {
        const auto d = static_cast<double>(detected);
        stats.mean_initial_diagnoses =
            static_cast<double>(sum_initial_diagnoses) / d;
        stats.mean_final_diagnoses =
            static_cast<double>(sum_final_diagnoses) / d;
        stats.mean_additional_tests =
            static_cast<double>(sum_additional_tests) / d;
        stats.mean_additional_inputs =
            static_cast<double>(sum_additional_inputs) / d;
    }
    return stats;
}

campaign_stats aggregate_entries(std::vector<campaign_entry> entries) {
    campaign_aggregator agg;
    for (const campaign_entry& entry : entries) agg.add(entry);
    campaign_stats stats = agg.finish();
    stats.entries = std::move(entries);
    return stats;
}

campaign_engine::campaign_engine(const spec_context& ctx,
                                 std::vector<single_transition_fault> faults,
                                 campaign_options options)
    : ctx_(&ctx),
      faults_(std::move(faults)),
      options_(std::move(options)) {}

campaign_engine::campaign_engine(const system& spec, test_suite suite,
                                 std::vector<single_transition_fault> faults,
                                 campaign_options options)
    : owned_ctx_(std::in_place, spec, std::move(suite)),
      ctx_(&*owned_ctx_),
      faults_(std::move(faults)),
      options_(std::move(options)) {}

void campaign_engine::attach(campaign_observer& observer) {
    observers_.push_back(&observer);
}

std::size_t campaign_engine::planned_faults() const noexcept {
    return std::min(faults_.size(),
                    options_.max_faults.value_or(faults_.size()));
}

campaign_entry campaign_engine::run_one(std::size_t index,
                                        const single_transition_fault& fault,
                                        stage_timings& stage_acc,
                                        double& scoring_acc,
                                        replay_cost& cost_acc,
                                        const cancel_token* cancel) const {
    const system& spec_ = ctx_->spec();
    const std::size_t replay_base = hypothesis_replays();
    const std::size_t steps_base = simulated_steps();
    const std::size_t skips_base = replay_cache_case_skips();
    const std::size_t suffix_base = replay_cache_suffix_replays();
    const discrim_counters discrim_base = discrim_totals();

    campaign_entry entry;
    entry.fault = fault;
    // Inputs the IUT itself consumed — the simulated IUT stands in for a
    // physical implementation whose execution costs the tester nothing, so
    // these apply calls are excluded from the simulated-steps metric below.
    std::size_t iut_inputs = 0;
    // Hooks and flaky seeds see the *global* index (engine-local index plus
    // the resume offset), so a resumed sub-range reproduces the
    // uninterrupted run's per-fault behaviour exactly.
    const std::size_t global_index = options_.index_base + index;

    // Per-entry budget: deadline/quotas from the campaign limits plus the
    // watchdog's cancel token.  Installed around everything this fault does
    // (diagnosis *and* scoring) so cancellation and starvation surface as
    // the classified outcomes below.  With no limits and no watchdog,
    // nothing is installed — the pre-budget computation, exactly.
    const campaign_budget& limits = options_.budget;
    run_budget budget;
    if (limits.entry_deadline) budget.with_deadline_in(*limits.entry_deadline);
    if (limits.entry_step_quota)
        budget.with_step_quota(*limits.entry_step_quota);
    if (limits.entry_memory_bytes)
        budget.with_memory_quota(*limits.entry_memory_bytes);
    if (cancel) budget.with_cancel(*cancel);
    std::optional<budget_scope> governed;
    if (budget.has_limits()) governed.emplace(&budget);

    try {
        if (options_.fault_hook) options_.fault_hook(global_index);

        const bool flaky_lab = options_.flaky && options_.flaky->active();
        diagnosis_result result;
        if (flaky_lab || options_.retry.deadline_ms > 0) {
            // Unreliable-lab path: fault injection at the SUT boundary,
            // de-noised by retry + voting before the diagnoser sees it.
            simulator_sut raw(spec_, fault);
            std::optional<flaky_sut> flaky;
            sut_connection* sut = &raw;
            if (flaky_lab) {
                flakiness_profile profile = *options_.flaky;
                profile.seed = mix_fault_seed(profile.seed, global_index);
                flaky.emplace(raw, spec_, profile);
                sut = &*flaky;
            }
            resilient_oracle iut(*sut, options_.retry);
            result = diagnose(*ctx_, iut, options_.diag);
            entry.oracle_executions = iut.executions();
            iut_inputs = iut.inputs_applied();
        } else {
            simulated_iut iut(spec_, fault);
            result = diagnose(*ctx_, iut, options_.diag);
            entry.oracle_executions = iut.executions();
            iut_inputs = iut.inputs_applied();
        }
        entry.oracle_inputs = iut_inputs;
        stage_acc += result.timings;

        entry.outcome = result.outcome;
        entry.detected =
            result.outcome != diagnosis_outcome::passed &&
            result.outcome != diagnosis_outcome::inconclusive_unreliable &&
            result.outcome != diagnosis_outcome::inconclusive_resource;
        entry.initial_diagnoses = result.initial_diagnoses.size();
        entry.final_diagnoses = result.final_diagnoses.size();
        entry.additional_tests = result.additional_tests.size();
        entry.additional_inputs = result.additional_inputs();
        entry.escalated = result.used_escalation;
        entry.used_fallback = result.used_fallback_search;
        entry.retries = result.reliability.retries;
        entry.transient_failures = result.reliability.transient_failures;
        entry.quarantined_cases = result.reliability.quarantined_cases;
        entry.quarantined_tests = result.reliability.quarantined_tests;

        if (entry.detected) {
            const auto t0 = std::chrono::steady_clock::now();
            try {
                entry.sound =
                    truth_among(*ctx_, fault, result.final_diagnoses);
            } catch (const resource_exhausted&) {
                // The budget died during scoring, after a completed
                // diagnosis.  Guessing `sound` either way would corrupt the
                // soundness math; downgrade the whole entry to the
                // resource-inconclusive refusal (widening, never flipping).
                entry.outcome = diagnosis_outcome::inconclusive_resource;
                entry.detected = false;
                entry.sound = false;
            }
            scoring_acc += seconds_since(t0);
        }
    } catch (const cancelled_error& e) {
        // The watchdog / campaign deadline cancelled this fault mid-run.
        // Classified, deterministic content (fixed message) — but excluded
        // from all verdict math; the sweep layer re-runs it on resume.
        entry = campaign_entry{};
        entry.fault = fault;
        entry.timed_out = true;
        entry.error_message = e.what();
    } catch (const resource_exhausted& e) {
        // Safety net: diagnose() absorbs its own budget stops; anything
        // escaping here is still isolated as a classified error entry.
        entry.errored = true;
        entry.error_kind = "resource";
        entry.error_message = e.what();
    } catch (const timeout_error& e) {
        entry.errored = true;
        entry.error_kind = "timeout";
        entry.error_message = e.what();
    } catch (const budget_exceeded& e) {
        entry.errored = true;
        entry.error_kind = "budget";
        entry.error_message = e.what();
    } catch (const transient_error& e) {
        entry.errored = true;
        entry.error_kind = "transient";
        entry.error_message = e.what();
    } catch (const model_error& e) {
        entry.errored = true;
        entry.error_kind = "model";
        entry.error_message = e.what();
    } catch (const error& e) {
        entry.errored = true;
        entry.error_kind = "error";
        entry.error_message = e.what();
    } catch (const std::exception& e) {
        entry.errored = true;
        entry.error_kind = "exception";
        entry.error_message = e.what();
    }

    const std::size_t diag_steps = simulated_steps() - steps_base;
    cost_acc.simulated_steps +=
        diag_steps - std::min(diag_steps, iut_inputs);
    cost_acc.cache_case_skips += replay_cache_case_skips() - skips_base;
    cost_acc.cache_suffix_replays +=
        replay_cache_suffix_replays() - suffix_base;
    const discrim_counters discrim_now = discrim_totals();
    cost_acc.discrim_joint_states +=
        discrim_now.joint_states - discrim_base.joint_states;
    cost_acc.discrim_memo_hits +=
        discrim_now.memo_hits - discrim_base.memo_hits;
    cost_acc.discrim_memo_misses +=
        discrim_now.memo_misses - discrim_base.memo_misses;
    cost_acc.discrim_bfs_searches +=
        discrim_now.bfs_searches - discrim_base.bfs_searches;
    // A cancelled fault's partial work depends on when the watchdog fired;
    // its entry must stay deterministic, so no counters are attributed.
    if (!entry.timed_out) entry.replays = hypothesis_replays() - replay_base;
    return entry;
}

const campaign_stats& campaign_engine::run() {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = planned_faults();
    stats_ = {};
    metrics_ = {};
    metrics_.jobs =
        std::max<std::size_t>(1, std::min(resolve_job_count(options_.jobs),
                                          std::max<std::size_t>(n, 1)));
    for (campaign_observer* o : observers_) o->on_campaign_begin(n);

    // Execution order may be shuffled for shard balance; completion order is
    // whatever the workers produce.  Both are invisible downstream: entries
    // land in slot `i` = fault index, and the cursor below emits observer
    // callbacks strictly in index order.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (options_.seed != 0) {
        rng shuffle_rng(options_.seed);
        shuffle_rng.shuffle(order);
    }

    // Accumulating path: entries land in slot i and are aggregated at the
    // end.  Streaming path: finished entries wait in `pending` only until
    // the cursor reaches them, then are emitted, folded, and released —
    // memory stays bounded by the out-of-order window instead of n.
    std::vector<campaign_entry> entries(options_.stream_entries ? 0 : n);
    std::vector<char> ready(n, 0);
    std::map<std::size_t, campaign_entry> pending;
    campaign_aggregator agg;
    std::size_t next_emit = 0;
    std::mutex merge_mutex;

    // Step 1's spec run depends only on (spec, suite); the spec_context
    // replayed it exactly once, at construction.  Account its simulation
    // cost here so the metric still covers the whole algorithm.
    metrics_.simulated_steps += ctx_->trace_steps();

    // Campaign-wide deadline: a dedicated watchdog thread flips the cancel
    // token at the deadline, which (a) stops workers from claiming new
    // faults and (b) cuts through in-flight diagnoses at their next budget
    // poll — a stuck worker cannot outlive the deadline by more than one
    // poll interval.
    std::optional<cancel_token> wd_token;
    std::thread watchdog;
    std::mutex wd_mutex;
    std::condition_variable wd_cv;
    bool wd_done = false;
    if (options_.budget.campaign_deadline) {
        wd_token.emplace();
        const auto deadline = std::chrono::steady_clock::now() +
                              *options_.budget.campaign_deadline;
        watchdog = std::thread([&, deadline] {
            std::unique_lock<std::mutex> lock(wd_mutex);
            if (!wd_cv.wait_until(lock, deadline, [&] { return wd_done; }))
                wd_token->cancel();
        });
    }
    const cancel_token* cancel = wd_token ? &*wd_token : nullptr;

    std::exception_ptr interrupt;
    try {
    // Step 5B's fault dictionary (DESIGN.md §5i): filled by the first run
    // on this context, after the watchdog starts (the campaign deadline
    // covers the fill) and before any entry's budget exists.  Its flat
    // steps join this run's simulated steps, like the trace steps above.
    if (n > 0) {
        const std::size_t fill_base = simulated_steps();
        ctx_->build_dictionary();
        metrics_.simulated_steps += simulated_steps() - fill_base;
    }
    parallel_for(n, metrics_.jobs, [&](std::size_t k) {
        const std::size_t i = order[k];
        stage_timings stage;
        double scoring = 0.0;
        replay_cost cost;
        campaign_entry entry =
            run_one(i, faults_[i], stage, scoring, cost, cancel);

        const std::lock_guard<std::mutex> lock(merge_mutex);
        metrics_.replays += entry.replays;
        metrics_.oracle_executions += entry.oracle_executions;
        metrics_.oracle_inputs += entry.oracle_inputs;
        metrics_.additional_tests += entry.additional_tests;
        metrics_.additional_inputs += entry.additional_inputs;
        metrics_.simulated_steps += cost.simulated_steps;
        metrics_.cache_case_skips += cost.cache_case_skips;
        metrics_.cache_suffix_replays += cost.cache_suffix_replays;
        metrics_.discrim_joint_states += cost.discrim_joint_states;
        metrics_.discrim_memo_hits += cost.discrim_memo_hits;
        metrics_.discrim_memo_misses += cost.discrim_memo_misses;
        metrics_.discrim_bfs_searches += cost.discrim_bfs_searches;
        metrics_.stage += stage;
        metrics_.wall_scoring += scoring;
        if (options_.stream_entries) {
            pending.emplace(i, std::move(entry));
            while (!pending.empty() &&
                   pending.begin()->first == next_emit) {
                auto node = pending.extract(pending.begin());
                const campaign_entry& head = node.mapped();
                for (campaign_observer* o : observers_)
                    o->on_fault_done(options_.index_base + next_emit, head);
                agg.add(head);
                ++next_emit;
            }
        } else {
            entries[i] = std::move(entry);
            ready[i] = 1;
            while (next_emit < n && ready[next_emit]) {
                for (campaign_observer* o : observers_)
                    o->on_fault_done(options_.index_base + next_emit,
                                     entries[next_emit]);
                ++next_emit;
            }
        }
    }, cancel);
    } catch (...) {
        // An observer interrupt (sweep_interrupt) or a worker's stored
        // exception: the watchdog must still be torn down before it
        // propagates.
        interrupt = std::current_exception();
    }
    if (watchdog.joinable()) {
        {
            const std::lock_guard<std::mutex> lock(wd_mutex);
            wd_done = true;
        }
        wd_cv.notify_all();
        watchdog.join();
    }
    metrics_.budget_stopped = wd_token && wd_token->cancelled();
    if (interrupt) std::rethrow_exception(interrupt);

    if (metrics_.budget_stopped && next_emit < n) {
        // The deadline fired with faults never started (or finished but
        // held back by a gap).  Synthesize deterministic timed-out entries
        // for the missing slots so the campaign still reports exactly one
        // classified entry per planned fault, and release the held-back
        // finishers in order.  (The sweep recorder throws its interrupt at
        // the first timed-out entry, truncating its completed prefix
        // there — resume re-runs exactly the starved indices.)
        const auto synthesized = [&](std::size_t i) {
            campaign_entry e;
            e.fault = faults_[i];
            e.timed_out = true;
            e.error_message = "campaign deadline exceeded";
            return e;
        };
        while (next_emit < n) {
            campaign_entry* slot = nullptr;
            if (options_.stream_entries) {
                const auto it = pending.find(next_emit);
                if (it == pending.end())
                    slot = &pending.emplace(next_emit,
                                            synthesized(next_emit))
                                .first->second;
                else
                    slot = &it->second;
            } else {
                if (!ready[next_emit]) {
                    entries[next_emit] = synthesized(next_emit);
                    ready[next_emit] = 1;
                }
                slot = &entries[next_emit];
            }
            for (campaign_observer* o : observers_)
                o->on_fault_done(options_.index_base + next_emit, *slot);
            if (options_.stream_entries) {
                agg.add(*slot);
                pending.erase(next_emit);
            }
            ++next_emit;
        }
    }

    stats_ = options_.stream_entries ? agg.finish()
                                     : aggregate_entries(std::move(entries));
    metrics_.faults = stats_.total;
    metrics_.wall_total = seconds_since(t0);
    for (campaign_observer* o : observers_)
        o->on_campaign_end(stats_, metrics_);
    return stats_;
}

json_value campaign_entry_to_json(const system& spec,
                                  const campaign_entry& e) {
    json_value row = json_value::object();
    row.set("fault", json_value::string(describe(spec, e.fault)));
    row.set("kind", json_value::string(to_string(e.fault.kind())));
    row.set("outcome", json_value::string(to_string(e.outcome)));
    row.set("detected", json_value::boolean(e.detected));
    row.set("sound", json_value::boolean(e.sound));
    row.set("initial_diagnoses", json_value::number(e.initial_diagnoses));
    row.set("final_diagnoses", json_value::number(e.final_diagnoses));
    row.set("additional_tests", json_value::number(e.additional_tests));
    row.set("additional_inputs", json_value::number(e.additional_inputs));
    row.set("replays", json_value::number(e.replays));
    row.set("oracle_executions", json_value::number(e.oracle_executions));
    row.set("oracle_inputs", json_value::number(e.oracle_inputs));
    row.set("escalated", json_value::boolean(e.escalated));
    row.set("used_fallback", json_value::boolean(e.used_fallback));
    row.set("retries", json_value::number(e.retries));
    row.set("transient_failures", json_value::number(e.transient_failures));
    row.set("quarantined_cases", json_value::number(e.quarantined_cases));
    row.set("quarantined_tests", json_value::number(e.quarantined_tests));
    row.set("errored", json_value::boolean(e.errored));
    if (e.errored) {
        row.set("error_kind", json_value::string(e.error_kind));
        row.set("error_message", json_value::string(e.error_message));
    }
    // Conditional like the error fields: rows of budget-free campaigns stay
    // byte-identical to pre-budget output.
    if (e.timed_out) {
        row.set("timed_out", json_value::boolean(true));
        row.set("error_message", json_value::string(e.error_message));
    }
    return row;
}

/// The report minus the entries array — shared between the monolithic and
/// streaming writers so both render the same summary bytes.
static json_value campaign_summary_json(const system& spec,
                                        const campaign_stats& stats,
                                        const campaign_metrics& metrics) {
    json_value root = json_value::object();
    root.set("system", json_value::string(spec.name()));

    json_value totals = json_value::object();
    totals.set("faults", json_value::number(stats.total));
    totals.set("detected", json_value::number(stats.detected));
    totals.set("localized", json_value::number(stats.localized));
    totals.set("localized_up_to_equivalence",
               json_value::number(stats.localized_equiv));
    totals.set("ambiguous", json_value::number(stats.ambiguous));
    totals.set("no_hypothesis", json_value::number(stats.no_hypothesis));
    totals.set("inconclusive_unreliable",
               json_value::number(stats.inconclusive_unreliable));
    totals.set("errored", json_value::number(stats.errored));
    totals.set("inconclusive_resource",
               json_value::number(stats.inconclusive_resource));
    totals.set("timed_out", json_value::number(stats.timed_out));
    totals.set("sound", json_value::number(stats.sound));
    totals.set("retries", json_value::number(stats.retries));
    totals.set("transient_failures",
               json_value::number(stats.transient_failures));
    totals.set("quarantined_runs",
               json_value::number(stats.quarantined_runs));
    totals.set("escalations", json_value::number(stats.escalations));
    totals.set("fallbacks", json_value::number(stats.fallbacks));
    totals.set("mean_initial_diagnoses",
               json_value::number(stats.mean_initial_diagnoses));
    totals.set("mean_final_diagnoses",
               json_value::number(stats.mean_final_diagnoses));
    totals.set("mean_additional_tests",
               json_value::number(stats.mean_additional_tests));
    totals.set("mean_additional_inputs",
               json_value::number(stats.mean_additional_inputs));
    root.set("totals", std::move(totals));

    json_value cost = json_value::object();
    cost.set("jobs", json_value::number(metrics.jobs));
    cost.set("replays", json_value::number(metrics.replays));
    cost.set("oracle_executions",
             json_value::number(metrics.oracle_executions));
    cost.set("oracle_inputs", json_value::number(metrics.oracle_inputs));
    cost.set("additional_tests",
             json_value::number(metrics.additional_tests));
    cost.set("additional_inputs",
             json_value::number(metrics.additional_inputs));
    cost.set("simulated_steps", json_value::number(metrics.simulated_steps));
    cost.set("cache_case_skips",
             json_value::number(metrics.cache_case_skips));
    cost.set("cache_suffix_replays",
             json_value::number(metrics.cache_suffix_replays));
    cost.set("discrim_joint_states",
             json_value::number(metrics.discrim_joint_states));
    cost.set("discrim_memo_hits",
             json_value::number(metrics.discrim_memo_hits));
    cost.set("discrim_memo_misses",
             json_value::number(metrics.discrim_memo_misses));
    cost.set("discrim_bfs_searches",
             json_value::number(metrics.discrim_bfs_searches));
    cost.set("wall_symptoms_s", json_value::number(metrics.stage.symptoms));
    cost.set("wall_conflicts_s", json_value::number(metrics.stage.conflicts));
    cost.set("wall_candidates_s",
             json_value::number(metrics.stage.candidates));
    cost.set("wall_evaluation_s",
             json_value::number(metrics.stage.evaluation));
    cost.set("wall_discrimination_s",
             json_value::number(metrics.stage.discrimination));
    cost.set("budget_stopped", json_value::boolean(metrics.budget_stopped));
    cost.set("wall_scoring_s", json_value::number(metrics.wall_scoring));
    cost.set("wall_total_s", json_value::number(metrics.wall_total));
    root.set("cost", std::move(cost));
    return root;
}

json_value campaign_to_json(const system& spec, const campaign_stats& stats,
                            const campaign_metrics& metrics) {
    json_value root = campaign_summary_json(spec, stats, metrics);
    json_value entries = json_value::array();
    for (const campaign_entry& e : stats.entries)
        entries.push(campaign_entry_to_json(spec, e));
    root.set("entries", std::move(entries));
    return root;
}

void campaign_to_json(std::ostream& out, const system& spec,
                      const campaign_stats& stats,
                      const campaign_metrics& metrics) {
    // Render the summary object, then splice the entries array in by hand,
    // one row at a time, reproducing dump(true)'s layout exactly: the
    // summary's closing "\n}" is replaced by the entries member, each row
    // rendered as if nested two levels deep.
    std::string summary =
        campaign_summary_json(spec, stats, metrics).dump(true);
    summary.resize(summary.size() - 2);  // drop the final "\n}"
    out << summary << ",\n  \"entries\": ";
    if (stats.entries.empty()) {
        out << "[]\n}";
        return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < stats.entries.size(); ++i) {
        out << "    "
            << campaign_entry_to_json(spec, stats.entries[i]).dump_at(2);
        out << (i + 1 < stats.entries.size() ? ",\n" : "\n");
    }
    out << "  ]\n}";
}

}  // namespace cfsmdiag
