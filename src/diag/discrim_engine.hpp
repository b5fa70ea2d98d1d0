// The campaign-wide flat discrimination engine: Step 6 on the compiled
// tables, amortized across faults.  It is the only way Step 6 predicts what
// a hypothesis outputs, in two layers:
//
//   1. Flat joint BFS — the shortest splitting sequence of a hypothesis set
//      by breadth-first search (input enumeration, FIFO order, `progressed`
//      gate and visited-cap semantics fixed, DESIGN.md §5f) over packed
//      W-word joint states and the compiled dispatch tables, with an
//      epoch-tagged dense visited set when the joint space is small and a
//      flat open-addressing set otherwise.  A hypothesis step that fires one
//      of its targets also steps the spec from the same state, so a spec
//      chain that throws (an internal ε message, a message cycle past the
//      hop budget) surfaces exactly where a search stepping the spec before
//      every hypothesis would surface it.  The state width is no gate: the
//      BFS runs at any `words`.
//
//   2. Cross-fault memoization — a sharded, compute-once memo keyed on the
//      canonicalized hypothesis set (dense compiled ids for the target and
//      its end-state/output/destination effects, hypotheses sorted) and the
//      visited cap.  Many mutants collapse to the same live-hypothesis
//      signature, so one computed splitting sequence (or equivalence proof)
//      serves the whole campaign; compute happens under the shard lock, so
//      hit/miss totals are byte-identical at any --jobs.  A hit is charged
//      the governed steps its computation took and notes the frontier it
//      allocated, so a step or memory quota trips on a hit exactly where it
//      would on a miss.
//
// Next to them it caches, campaign-wide, the flat replay of every
// additional test (replay_for), the structured test Step 6 applies to each
// live set, and the transfer sequences the proposals start with.
// Soundness is argued in DESIGN.md §5f.  The engine is owned by
// spec_context, immutable from the caller's view, and safe to share across
// campaign workers (the memo and the caches are mutex-guarded).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "diag/additional_tests.hpp"
#include "diag/compiled.hpp"
#include "diag/diagnosis.hpp"

namespace cfsmdiag {

/// Thread-local discrimination cost counters, monotone per thread —
/// snapshot before and after a diagnose() run and subtract, exactly like
/// hypothesis_replays().  All are deterministic campaign-wide totals for
/// any --jobs (the memo computes under its shard lock, so each distinct key
/// is a miss exactly once no matter which worker gets there first).
struct discrim_counters {
    std::size_t joint_states = 0;  ///< joint states expanded by flat BFS
    std::size_t memo_hits = 0;     ///< queries served from the memo
    std::size_t memo_misses = 0;   ///< queries that had to compute
    /// Always 0 (every memo miss runs a search).  Kept because the
    /// perfbench harness reads it, and perfbench changes only together
    /// with its benchmark definition.
    std::size_t table_answers = 0;
    std::size_t bfs_searches = 0;  ///< flat joint BFS runs
};

/// Snapshot of the calling thread's counters.
[[nodiscard]] discrim_counters discrim_totals() noexcept;

class discrim_engine {
  public:
    /// `cs` and `spec` must outlive the engine (the spec_context owns all
    /// three).  Construction is cheap: the input enumeration and the
    /// dense-index strides.
    discrim_engine(const compiled_spec& cs, const system& spec);

    discrim_engine(const discrim_engine&) = delete;
    discrim_engine& operator=(const discrim_engine&) = delete;

    /// The shortest input sequence from reset on which two of `hypotheses`
    /// (each a set of overrides; the empty set is the spec) disagree — the
    /// BFS-canonical one — or nullopt when they are observationally
    /// equivalent within the cap.  Throws what the spec or a hypothesis
    /// throws on a step the search takes, the first in the caller's order.
    /// Results are shared across calls and threads through the sharded
    /// memo; a hit charges the installed budget the steps the search took
    /// and notes the frontier it allocated, so governed runs see the same
    /// step counts and memory high water whatever the memo holds.
    [[nodiscard]] std::optional<std::vector<global_input>> splitting_sequence(
        const std::vector<std::vector<transition_override>>& hypotheses,
        std::size_t max_joint_states) const;

    /// Campaign-wide flat replay of `inputs` (diag/compiled.hpp), built once
    /// per distinct input sequence and shared across faults and workers:
    /// splits(), the tracker's apply_result() and each applied test's
    /// expected output read it.  The same structured Step 6 tests recur for
    /// every fault on the same suspect transition, and each applied test is
    /// replayed at least twice (splits, then apply_result), so the cache
    /// turns the dominant per-test cost into a lookup.
    [[nodiscard]] std::shared_ptr<const flat_sequence> replay_for(
        const std::vector<global_input>& inputs) const;

    /// Whether at least two of `alive` predict different observations for
    /// `inputs` (from reset), on replay_for(inputs): each hypothesis is
    /// stepped only from its first firing.  The verdict equals comparing
    /// observe(spec, inputs, hypothesis) outputs.
    [[nodiscard]] bool splits(const std::vector<diagnosis>& alive,
                              const std::vector<global_input>& inputs) const;

    /// Campaign-wide applied-test cache: the first propose_structured_tests
    /// proposal for `alive` that splits it, or nullptr when none does — the
    /// test Step 6 applies next.  A pure function of (spec, live set,
    /// step-6 options), and faults whose Step 5 survivors coincide are
    /// common, so one choice serves them all.  `alive` must be sorted and
    /// deduplicated (hypothesis_tracker::alive).  Keyed on the canonical
    /// hypothesis encodings plus every option field; a choice that throws
    /// caches nothing.  The pointer stays valid for the engine's lifetime.
    [[nodiscard]] const proposed_test* structured_test(
        const std::vector<diagnosis>& alive,
        const step6_options& options) const;

  private:
    using key_type = std::vector<std::uint32_t>;
    struct key_hash {
        std::size_t operator()(const key_type& k) const noexcept;
    };
    /// A hypothesis lowered for the joint stepper.
    struct flat_hyp {
        std::vector<flat_override> ovs;
        key_type enc;  ///< canonical encoding (memo key)
    };
    /// Runs the flat joint BFS on W-word states (compiled_spec::words_in),
    /// stepping `hyps` in their order; `memory_noted` receives the largest
    /// frontier footprint it passed to the memory quota.
    template <std::size_t W>
    [[nodiscard]] std::optional<std::vector<global_input>> flat_search(
        const std::vector<flat_hyp>& hyps, std::size_t max_joint_states,
        std::size_t& memory_noted) const;

    /// global_transfer_to_machine_state from reset on the context's own
    /// lowering `cs_`, once per (machine, state, search options): Step 6
    /// derives its proposals again after every applied test, and their
    /// transfers mostly repeat.
    [[nodiscard]] std::optional<std::vector<global_input>> transfer_for(
        machine_id m, state_id s, const global_search_options& search) const;

    /// Mixed-radix index of the W-word packed state at `packed` in the
    /// product state space (requires product_size_ != 0).
    template <std::size_t W>
    [[nodiscard]] std::uint32_t product_index(
        const std::uint64_t* packed) const noexcept;

    const compiled_spec* cs_;
    const system* spec_;

    /// Input enumeration, identical to all_port_inputs(spec).
    std::vector<global_input> inputs_;
    std::vector<std::uint32_t> in_port_;
    std::vector<std::uint32_t> in_sym_;

    /// Product-space strides per machine for the dense visited index;
    /// product_size_ = Π state_count, or 0 when above the dense cap.
    std::vector<std::uint32_t> stride_;
    std::uint32_t product_size_ = 0;

    // --- sharded cross-fault memo (layer 2) -------------------------------
    static constexpr std::size_t memo_shards = 16;
    struct memo_value {
        std::optional<std::vector<global_input>> sequence;
        /// Governed steps (budget polls) the computation took; every hit is
        /// charged them, so a step quota trips where a miss would.
        std::uint64_t steps = 0;
        /// Largest frontier footprint the search noted to the memory
        /// quota; every hit notes it again, so a memory quota trips where a
        /// miss would.
        std::size_t memory = 0;
    };
    struct memo_shard {
        std::mutex mutex;
        std::unordered_map<key_type, memo_value, key_hash> map;
    };
    mutable std::array<memo_shard, memo_shards> memo_;

    mutable std::mutex sequence_mutex_;
    mutable std::unordered_map<key_type, std::shared_ptr<const flat_sequence>,
                               key_hash>
        sequence_cache_;

    mutable std::mutex transfer_mutex_;
    mutable std::unordered_map<key_type,
                               std::optional<std::vector<global_input>>,
                               key_hash>
        transfer_cache_;

    mutable std::mutex applied_test_mutex_;
    mutable std::unordered_map<key_type, std::optional<proposed_test>,
                               key_hash>
        applied_test_cache_;
};

/// Observational equivalence of two hypotheses by the engine's joint BFS,
/// shared through its memo (a hit cap reports equivalent).
[[nodiscard]] bool observationally_equivalent(const discrim_engine& engine,
                                              const diagnosis& a,
                                              const diagnosis& b,
                                              std::size_t max_states = 100'000);

}  // namespace cfsmdiag
