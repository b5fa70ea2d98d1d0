// The unified entry point of the diagnosis API: everything that is a pure
// function of (spec, suite), computed once and shared by every diagnosis.
//
// Before this context existed, each call site assembled the pieces itself —
// replay the suite on the spec (Step 1), build a replay_cache per report,
// rebuild firing indexes per fault — and the campaign engine, the CLI, the
// benches and the tests each did it slightly differently.  A spec_context
// owns that shared state:
//   - the test suite (by value: the context is the suite's home — diagnose
//     against a context, not a (spec, suite) pair),
//   - the Step-1 spec traces of every case (one replay, ever),
//   - the flat compiled core (diag/compiled.hpp): dense transition tables,
//     dispatch tables, admissible-output pools, per-case firing indexes and
//     the u64 state packing the per-fault hot path runs on,
//   - Step 5B's fault dictionary (DESIGN.md §5i), built lazily: only
//     campaign_engine::run() asks for it, once per context, so a one-shot
//     diagnose() never pays for a fill it could not amortize.
//
// The context holds no per-diagnosis scratch, and every member except the
// dictionary is fixed at construction; the dictionary is built once and
// read under its lock, and the discrimination engine's caches synchronize
// themselves.  So one instance may be shared by const reference
// across campaign worker threads and across engines.  Per-diagnosis state
// (bit arenas, flat replayers, replay caches) is created per call — see
// diagnose(const spec_context&, ...).
//
// Construction of replay_cache lives here (make_replay_cache) because the
// cache's correctness depends on the report having been collected against
// this context's suite; routing construction through the owner of the suite
// makes that precondition structural.
#pragma once

#include <memory>
#include <mutex>

#include "diag/compiled.hpp"
#include "diag/discrim_engine.hpp"
#include "diag/replay_cache.hpp"

namespace cfsmdiag {

class spec_context {
  public:
    /// Replays `suite` on `spec` (the only Step-1 simulation) and lowers
    /// both into the compiled core.  `spec` must outlive the context.
    /// `precomputed`, when given, must be the spec replay of `suite` and
    /// replaces the Step-1 simulation (used by callers that already hold
    /// the traces; validated for shape).
    spec_context(const system& spec, test_suite suite,
                 const suite_traces* precomputed = nullptr);

    // Non-copyable and non-movable: the discrimination engine holds
    // pointers into this context's compiled tables, so the context must
    // stay where it was built (every call site constructs it in place).
    spec_context(const spec_context&) = delete;
    spec_context& operator=(const spec_context&) = delete;
    spec_context(spec_context&&) = delete;
    spec_context& operator=(spec_context&&) = delete;

    [[nodiscard]] const system& spec() const noexcept { return *spec_; }
    [[nodiscard]] const test_suite& suite() const noexcept { return suite_; }
    [[nodiscard]] const suite_traces& traces() const noexcept {
        return traces_;
    }
    [[nodiscard]] const compiled_spec& compiled() const noexcept {
        return compiled_;
    }

    /// The campaign-wide flat discrimination engine (Step 6's joint search
    /// on compiled tables behind a cross-fault memo).
    /// Shared across threads like the rest of the context; its internal
    /// caches are synchronized.
    [[nodiscard]] const discrim_engine& discrim() const noexcept {
        return *discrim_;
    }

    /// Step 5B's fault dictionary, or nullptr until build_dictionary() has
    /// run on this context (and always on a context whose states do not
    /// pack).  diagnose() uses it when it exists and never builds it.
    [[nodiscard]] const fault_dictionary* dictionary() const;

    /// Fills the fault dictionary unless it exists; concurrent callers wait
    /// for the one fill.  A no-op on a context whose states do not pack.
    /// campaign_engine::run() calls it before its workers start, so no
    /// entry pays for the fill or is budgeted for it.
    void build_dictionary() const;

    /// Total trace steps across the suite (the simulation cost of Step 1,
    /// incurred once at construction; campaign metrics account for it).
    [[nodiscard]] std::size_t trace_steps() const noexcept {
        return trace_steps_;
    }

    /// Builds the reference-path replay accelerator for one symptom report.
    /// The report must have been collected against this context's suite.
    [[nodiscard]] replay_cache make_replay_cache(
        const symptom_report& report) const;

  private:
    const system* spec_;
    test_suite suite_;
    suite_traces traces_;
    std::size_t trace_steps_ = 0;
    compiled_spec compiled_;
    std::unique_ptr<discrim_engine> discrim_;
    mutable std::mutex dictionary_mutex_;
    mutable std::unique_ptr<const fault_dictionary> dictionary_;
};

}  // namespace cfsmdiag
