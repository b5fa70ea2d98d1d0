// The unified entry point of the diagnosis API: everything that is a pure
// function of (spec, suite), computed once and shared by every diagnosis.
//
// Before this context existed, each call site assembled the pieces itself —
// replay the suite on the spec (Step 1), build a replay accelerator per
// report, rebuild firing indexes per fault — and the campaign engine, the
// CLI, the benches and the tests each did it slightly differently.  A
// spec_context owns that shared state:
//   - the test suite (by value: the context is the suite's home — diagnose
//     against a context, not a (spec, suite) pair),
//   - the Step-1 spec traces of every case (one replay, ever), shared:
//     each diagnosis's symptom report points into them instead of copying
//     them, and keeps them alive past the context,
//   - the flat compiled core (diag/compiled.hpp): dense transition tables,
//     dispatch tables, admissible-output pools, per-case firing indexes and
//     the W-word state packing the per-fault hot path runs on, for systems
//     of any width,
//   - Step 5B's fault dictionary (DESIGN.md §5i), built lazily: only
//     campaign_engine::run() asks for it, once per context, so a one-shot
//     diagnose() never pays for a fill it could not amortize,
//   - the discrimination engine (diag/discrim_engine.hpp), through which
//     Step 6 predicts every hypothesis's outputs.
//
// A caller with no suite, which needs only Step 6's joint search (a
// witness, a mutation score, an equivalence check), builds
// `spec_context(spec, {})`: the lowering of an empty suite and its engine.
//
// The context holds no per-diagnosis scratch, and every member except the
// dictionary is fixed at construction; the dictionary is built once and
// read under its lock, and the discrimination engine's caches synchronize
// themselves.  So one instance may be shared by const reference
// across campaign worker threads and across engines.  Per-diagnosis state
// (bit arenas, flat replayers) is created per call — see
// diagnose(const spec_context&, ...).
#pragma once

#include <memory>
#include <mutex>

#include "diag/compiled.hpp"
#include "diag/discrim_engine.hpp"

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
    /// The Step-1 traces, shared: pass them to collect_symptoms() and each
    /// executed_case aliases its case's trace instead of copying it.
    [[nodiscard]] const std::shared_ptr<const suite_traces>& traces()
        const noexcept {
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
    /// run on this context.  diagnose() uses it when it exists and never
    /// builds it.
    [[nodiscard]] const fault_dictionary* dictionary() const;

    /// Fills the fault dictionary unless it exists; concurrent callers wait
    /// for the one fill.  campaign_engine::run() calls it before its
    /// workers start, so no entry pays for the fill or is budgeted for it.
    void build_dictionary() const;

    /// Total trace steps across the suite (the simulation cost of Step 1,
    /// incurred once at construction; campaign metrics account for it).
    [[nodiscard]] std::size_t trace_steps() const noexcept {
        return trace_steps_;
    }

  private:
    const system* spec_;
    test_suite suite_;
    std::shared_ptr<const suite_traces> traces_;
    std::size_t trace_steps_ = 0;
    compiled_spec compiled_;
    std::unique_ptr<discrim_engine> discrim_;
    mutable std::mutex dictionary_mutex_;
    mutable std::unique_ptr<const fault_dictionary> dictionary_;
};

}  // namespace cfsmdiag
