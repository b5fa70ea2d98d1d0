// Cooperative resource governance for long-running diagnosis work.
//
// A `run_budget` bounds one unit of work (typically one fault's diagnosis)
// along three axes — a monotonic wall-clock deadline, a step quota counted
// in budget polls, and a memory quota fed by bit_arena/container accounting
// — plus an externally shared `cancel_token` a watchdog or campaign
// deadline can flip from another thread.  The deep loops of the pipeline
// (joint BFS expansion, hypothesis replay, suite execution) call
// `detail::budget_poll()`, which is a no-op unless a budget is installed
// for the current thread via `budget_scope` — the same thread-local idiom
// as the replay/step counters in diag/hypotheses.hpp, so threading a budget
// through the pipeline costs no signature churn.
//
// Two distinct stop channels, deliberately different exception types:
//   - `resource_exhausted` — *this entry's own* budget ran out (deadline,
//     steps, memory).  diagnose() catches it and walks a degradation
//     ladder; the worst case is a classified `inconclusive_resource`
//     verdict.  It never escapes to the engine on the default path.
//   - `cancelled_error` — an *external* canceller fired (campaign-wide
//     deadline watchdog, user stop).  It propagates out of diagnose() so
//     the engine can classify the entry as timed out; degradation would be
//     pointless when the whole campaign is being torn down.
// Both derive from `error` but are caught *before* any generic
// `catch (const error&)` crash-isolation handler.
//
// Determinism note: whether a deadline fires depends on wall-clock, so
// budgeted runs are not byte-identical across machines — but a run with
// *no* budget installed computes exactly what the pre-budget code did
// (every poll is a single thread-local load and branch; only a Step 6
// memo miss installs a limit-free meter to count its search's polls),
// which is what the budgets-off byte-identity tests pin.  Step and memory
// quotas are deterministic too: a memo hit charge()s the polls its search
// recorded and notes the frontier it noted.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "util/error.hpp"

namespace cfsmdiag {

/// Thrown when the current entry's own budget (deadline / step quota /
/// memory quota) is exhausted.  Callers that own a degradation path catch
/// it; a stop may only *widen* the verdict toward inconclusive (see
/// DESIGN.md §5h), never flip detection or localization.
class resource_exhausted : public error {
  public:
    explicit resource_exhausted(const std::string& what) : error(what) {}
};

/// Thrown when an external canceller (watchdog, campaign deadline) fired.
/// Propagates out of the governed work so the caller can classify it.
class cancelled_error : public error {
  public:
    explicit cancelled_error(const std::string& what) : error(what) {}
};

/// A cooperative cancellation flag shareable across threads.  Copies share
/// the flag; cancel() is sticky (there is no reset — make a new token).
class cancel_token {
  public:
    cancel_token() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    void cancel() const noexcept {
        flag_->store(true, std::memory_order_relaxed);
    }
    [[nodiscard]] bool cancelled() const noexcept {
        return flag_->load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/// The budget of one governed run.  Configure with the with_* setters, then
/// install for the worker thread via budget_scope; the pipeline polls it.
///
/// Thread model: one run_budget is polled by exactly one thread (its
/// counters are plain), but the cancel token may be flipped from anywhere.
class run_budget {
  public:
    using clock = std::chrono::steady_clock;

    run_budget() = default;

    run_budget& with_deadline(clock::time_point when) {
        deadline_ = when;
        return *this;
    }
    run_budget& with_deadline_in(std::chrono::milliseconds ms) {
        return with_deadline(clock::now() + ms);
    }
    run_budget& with_step_quota(std::uint64_t steps) {
        step_quota_ = steps;
        return *this;
    }
    run_budget& with_memory_quota(std::size_t bytes) {
        memory_quota_ = bytes;
        return *this;
    }
    run_budget& with_cancel(cancel_token token) {
        cancel_ = std::move(token);
        return *this;
    }

    /// A view sharing this budget's cancel token but carrying no quotas.
    /// The degradation ladder installs one while it runs its (structurally
    /// bounded) cheaper rungs: the exhausted parent budget would re-throw
    /// on the first poll, but external cancellation must still cut through.
    [[nodiscard]] run_budget cancel_only() const {
        run_budget view;
        view.cancel_ = cancel_;
        return view;
    }

    [[nodiscard]] bool has_limits() const noexcept {
        return deadline_ || step_quota_ || memory_quota_ || cancel_;
    }

    /// One unit of governed work: bumps the step counter, checks the cancel
    /// token every call and the deadline every 32nd call (steady_clock
    /// reads are cheap but not free; stage boundaries additionally call
    /// check_deadline_now()).  Throws cancelled_error or resource_exhausted.
    void poll() const {
        ++steps_;
        if (cancel_ && cancel_->cancelled())
            throw cancelled_error("cancelled: watchdog or campaign deadline");
        if (step_quota_ && steps_ > *step_quota_)
            throw resource_exhausted("step quota of " +
                                     std::to_string(*step_quota_) +
                                     " exhausted");
        if (deadline_ && (steps_ & 31u) == 1u) check_deadline_now();
    }

    /// `n` governed steps at once: what a cache hit is charged for the
    /// polls of the computation it stands in for, so step-quota behaviour
    /// does not depend on what the cache already holds.  Throws exactly when
    /// `n` consecutive poll() calls would (n = 0 is a no-op, like no poll).
    void charge(std::uint64_t n) const {
        if (n == 0) return;
        if (cancel_ && cancel_->cancelled())
            throw cancelled_error("cancelled: watchdog or campaign deadline");
        if (step_quota_ && steps_ + n > *step_quota_) {
            steps_ = std::max(steps_, *step_quota_) + 1;
            throw resource_exhausted("step quota of " +
                                     std::to_string(*step_quota_) +
                                     " exhausted");
        }
        steps_ += n;
        if (deadline_) check_deadline_now();
    }

    /// Unconditional deadline + cancellation check (stage boundaries).
    void check_deadline_now() const {
        if (cancel_ && cancel_->cancelled())
            throw cancelled_error("cancelled: watchdog or campaign deadline");
        if (deadline_ && clock::now() > *deadline_)
            throw resource_exhausted("entry deadline exceeded");
    }

    /// Records the current footprint of one accounted allocation site
    /// (callers pass absolute capacities, e.g. bit_arena::capacity_bytes(),
    /// not deltas — re-noting the same arena is idempotent at its high
    /// water).  Throws resource_exhausted when the quota is breached.
    void note_memory(std::size_t bytes) const {
        if (bytes > memory_high_water_) memory_high_water_ = bytes;
        if (memory_quota_ && memory_high_water_ > *memory_quota_)
            throw resource_exhausted(
                "memory quota of " + std::to_string(*memory_quota_) +
                " bytes exhausted");
    }

    [[nodiscard]] std::uint64_t steps_used() const noexcept {
        return steps_;
    }
    /// The number of poll() calls that pass the step quota from here: the
    /// one after them throws resource_exhausted, and so does charge(n) for
    /// any n > polls_left().  The quota alone: the deadline and the cancel
    /// token are not counted.  The largest value without a quota.
    [[nodiscard]] std::uint64_t polls_left() const noexcept {
        if (!step_quota_) return std::numeric_limits<std::uint64_t>::max();
        return steps_ < *step_quota_ ? *step_quota_ - steps_ : 0;
    }
    [[nodiscard]] std::size_t memory_high_water() const noexcept {
        return memory_high_water_;
    }
    [[nodiscard]] const std::optional<cancel_token>& cancel() const noexcept {
        return cancel_;
    }

  private:
    std::optional<clock::time_point> deadline_;
    std::optional<std::uint64_t> step_quota_;
    std::optional<std::size_t> memory_quota_;
    std::optional<cancel_token> cancel_;
    mutable std::uint64_t steps_ = 0;
    mutable std::size_t memory_high_water_ = 0;
};

namespace detail {

inline constinit thread_local const run_budget* installed_budget = nullptr;

/// The thread's installed budget, or nullptr.  A thread-local slot rather
/// than a parameter: the poll sites sit many layers below diagnose() and
/// the counters in diag/hypotheses already established the idiom.  Inline,
/// so a poll from a per-hypothesis loop is a load and a branch, not a call.
[[nodiscard]] inline const run_budget*& current_budget() noexcept {
    return installed_budget;
}

/// Cheap poll from deep loops; no-op when no budget is installed.
inline void budget_poll() {
    if (const run_budget* b = current_budget()) b->poll();
}

/// Charges `n` recorded steps (a cache hit); no-op when uninstalled.
inline void budget_charge(std::uint64_t n) {
    if (const run_budget* b = current_budget()) b->charge(n);
}

/// Memory accounting from arena/container owners; no-op when uninstalled.
inline void budget_note_memory(std::size_t bytes) {
    if (const run_budget* b = current_budget()) b->note_memory(bytes);
}

/// Stage-boundary deadline check; no-op when uninstalled.
inline void budget_checkpoint() {
    if (const run_budget* b = current_budget()) b->check_deadline_now();
}

}  // namespace detail

/// RAII installer of a budget for the current thread.  Scopes nest (the
/// degradation ladder installs a cancel-only view inside the entry scope);
/// passing nullptr installs "no budget", which is how governed code calls
/// unbudgeted helpers.
class budget_scope {
  public:
    explicit budget_scope(const run_budget* budget)
        : prev_(detail::current_budget()) {
        detail::current_budget() = budget;
    }
    budget_scope(const budget_scope&) = delete;
    budget_scope& operator=(const budget_scope&) = delete;
    ~budget_scope() { detail::current_budget() = prev_; }

  private:
    const run_budget* prev_;
};

}  // namespace cfsmdiag
