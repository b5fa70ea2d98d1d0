// The campaign-wide flat discrimination engine: Step 6's joint hypothesis
// search re-expressed on the compiled tables and amortized across faults.
//
// After the compiled core (diag/compiled.hpp) made Steps 4-5C nearly free,
// the splitting-sequence search of diag/discriminate.cpp became the hot
// path: a per-call BFS over map-backed joint states with per-step fsm::find
// dispatch.  This engine keeps the search's *results* bit-for-bit identical
// while changing everything about how they are computed, in three layers:
//
//   1. Flat joint BFS — the same breadth-first exploration (same input
//      enumeration, same FIFO order, same `progressed` gate, same visited
//      cap semantics) over packed u64 states and the compiled dispatch
//      tables, with an epoch-tagged dense visited set when the joint space
//      is small and a flat open-addressing set otherwise.  Because the
//      reference search computes a *specification* step for every explored
//      (state, input) — and would therefore surface a spec-side simulator
//      error even when the mutated chain is fine — the flat BFS is enabled
//      only when a structural analysis of the compiled universe proves spec
//      chains can never throw (no internal-ε output, acyclic
//      internal-successor graph, ≤ hop-budget transitions); otherwise the
//      engine transparently computes through the reference search.
//
//   2. Pairwise splitting tables — lazily built per spec_context:
//      a Moore partition of the full product state space into spec
//      observational-equivalence classes, plus per-hypothesis-pair
//      "disagreement reachable" bitmaps over product-state pairs (backward
//      closure over the pair graph, seeded by direct disagreements, dead
//      pairs with distinct Moore classes, and any state whose step would
//      throw).  A query whose reset pair cannot reach a disagreement is
//      answered nullopt without any BFS — exact regardless of the visited
//      cap — and when the joint space provably fits under the cap, the
//      tables also prune barren joint states inside the BFS.
//
//   3. Cross-fault memoization — a sharded, compute-once memo keyed on the
//      canonicalized hypothesis set (dense compiled ids for the target and
//      its end-state/output/destination effects, hypotheses sorted) and the
//      visited cap.  Many mutants collapse to the same live-hypothesis
//      signature, so one computed splitting sequence (or equivalence proof)
//      serves the whole campaign; compute happens under the shard lock, so
//      hit/miss totals are byte-identical at any --jobs.  A hit is charged
//      the governed steps its computation took, so a step quota trips on a
//      hit exactly where it would on a miss.
//
// Soundness of the shortcuts is argued in DESIGN.md §5f.  The engine is
// owned by spec_context, immutable from the caller's view, and safe to
// share across campaign workers (internal tables are mutex-guarded and
// built at most once).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "diag/compiled.hpp"
#include "diag/diagnosis.hpp"

namespace cfsmdiag {

class hypothesis_tracker;
class sequence_replay;
struct proposed_test;
struct step6_options;

/// Thread-local discrimination cost counters, monotone per thread —
/// snapshot before and after a diagnose() run and subtract, exactly like
/// hypothesis_replays().  All five are deterministic campaign-wide totals
/// for any --jobs (the memo computes under its shard lock, so each distinct
/// key is a miss exactly once no matter which worker gets there first).
struct discrim_counters {
    std::size_t joint_states = 0;   ///< joint states expanded by flat BFS
    std::size_t memo_hits = 0;      ///< queries served from the memo
    std::size_t memo_misses = 0;    ///< queries that had to compute
    std::size_t table_answers = 0;  ///< answered by pairwise tables, no BFS
    std::size_t bfs_searches = 0;   ///< flat joint BFS runs
};

/// Snapshot of the calling thread's counters.
[[nodiscard]] discrim_counters discrim_totals() noexcept;

class discrim_engine {
  public:
    /// `cs` and `spec` must outlive the engine (the spec_context owns all
    /// three).  Construction is cheap; the pairwise tables build lazily on
    /// first use.
    discrim_engine(const compiled_spec& cs, const system& spec);

    discrim_engine(const discrim_engine&) = delete;
    discrim_engine& operator=(const discrim_engine&) = delete;

    /// True when the flat joint BFS can run (packed states + provably
    /// throw-free spec chains).  When false the engine still memoizes, but
    /// computes through the reference search.
    [[nodiscard]] bool flat_search_available() const noexcept {
        return flat_ok_;
    }

    /// Drop-in replacement for splitting_sequence(spec, hypotheses, max):
    /// byte-identical result (the BFS-canonical shortest splitting
    /// sequence, or nullopt when the hypotheses are observationally
    /// equivalent within the cap).  Results are shared across calls and
    /// threads through the sharded memo; a hit charges the installed budget
    /// the steps the search took, so governed runs see the same step counts
    /// whatever the memo holds.
    [[nodiscard]] std::optional<std::vector<global_input>> splitting_sequence(
        const std::vector<std::vector<transition_override>>& hypotheses,
        std::size_t max_joint_states) const;

    /// Campaign-wide spec replay of `inputs`: the sequence_replay the
    /// tracker's splits()/apply_result() would otherwise construct per
    /// call, built once per distinct input sequence and shared across
    /// faults and workers.  The same structured Step 6 proposals recur for
    /// every fault on the same suspect transition, and each applied test is
    /// replayed at least twice (splits, then apply_result), so the cache
    /// turns the dominant per-proposal cost into a lookup.
    [[nodiscard]] std::shared_ptr<const sequence_replay> replay_for(
        const std::vector<global_input>& inputs) const;

    /// Campaign-wide structured-proposal cache: the Figure-2 test
    /// derivation is a pure function of (spec, live hypothesis set, step-6
    /// options) — see propose_structured_tests — and faults whose Step 5
    /// survivors coincide are common, so one derivation serves them all.
    /// Keyed on the canonical hypothesis encodings plus every option field.
    [[nodiscard]] std::shared_ptr<const std::vector<proposed_test>>
    structured_proposals(const hypothesis_tracker& tracker,
                         const step6_options& options) const;

  private:
    using key_type = std::vector<std::uint32_t>;
    struct key_hash {
        std::size_t operator()(const key_type& k) const noexcept;
    };
    /// A hypothesis lowered for the joint stepper.
    struct flat_hyp {
        std::vector<flat_override> ovs;
        key_type enc;  ///< canonical encoding (memo / table cache key)
    };
    /// Per-hypothesis dynamics over the full product state space: packed
    /// successor + packed observation per (state, input), whether the step
    /// fired and whether it would throw, and backward reachability of
    /// "fires an overridden target" (dead states behave exactly like the
    /// spec forever).
    struct hyp_tables {
        std::vector<std::uint32_t> succ;  ///< S * inputs, product indices
        std::vector<std::uint64_t> obs;   ///< S * inputs, packed
        dyn_bitset fired;                 ///< S * inputs
        dyn_bitset throws;                ///< S * inputs
        dyn_bitset live;                  ///< S: can still fire a target
    };

    [[nodiscard]] std::optional<std::vector<global_input>> compute(
        const std::vector<flat_hyp>& hyps,
        const std::vector<std::vector<transition_override>>& hypotheses,
        std::size_t max_joint_states) const;
    [[nodiscard]] std::optional<std::vector<global_input>> flat_search(
        const std::vector<flat_hyp>& hyps, std::size_t max_joint_states,
        const std::vector<const dyn_bitset*>& pair_maps) const;

    /// Builds the product universe (strides, Moore classes) once; returns
    /// false when layer 2 is unavailable (too large, or a spec probe
    /// misbehaved).
    [[nodiscard]] bool ensure_universe() const;
    [[nodiscard]] std::shared_ptr<const hyp_tables> hyp_dynamics_locked(
        const flat_hyp& h) const;
    /// Disagreement-reachability bitmap over ordered product-state pairs
    /// for hypotheses (a, b); bit u*S+v set = a-from-u vs b-from-v can
    /// disagree (or throw).  Cached under the canonical unordered key.
    [[nodiscard]] std::shared_ptr<const dyn_bitset> pair_map(
        const flat_hyp& a, const flat_hyp& b) const;

    [[nodiscard]] std::uint32_t product_index(
        std::uint64_t packed) const noexcept;

    const compiled_spec* cs_;
    const system* spec_;
    bool flat_ok_ = false;

    /// Input enumeration, identical to all_port_inputs(spec).
    std::vector<global_input> inputs_;
    std::vector<std::uint32_t> in_port_;
    std::vector<std::uint32_t> in_sym_;

    // --- lazily-built product universe (layer 2) --------------------------
    struct universe {
        bool ok = false;
        std::uint32_t size = 0;             ///< Π state_count[m]
        std::vector<std::uint32_t> stride;  ///< mixed-radix per machine
        std::vector<std::uint64_t> packed;  ///< product index → packed state
        std::vector<std::uint32_t> cls;     ///< Moore class per state
    };
    mutable std::once_flag universe_once_;
    mutable universe uni_;

    mutable std::mutex tables_mutex_;
    mutable std::unordered_map<key_type, std::shared_ptr<const hyp_tables>,
                               key_hash>
        hyp_cache_;
    mutable std::unordered_map<key_type, std::shared_ptr<const dyn_bitset>,
                               key_hash>
        pair_cache_;

    // --- sharded cross-fault memo (layer 3) -------------------------------
    static constexpr std::size_t memo_shards = 16;
    struct memo_value {
        std::optional<std::vector<global_input>> sequence;
        /// Governed steps (budget polls) the computation took; every hit is
        /// charged them, so a step quota trips where a miss would.
        std::uint64_t steps = 0;
    };
    struct memo_shard {
        std::mutex mutex;
        std::unordered_map<key_type, memo_value, key_hash> map;
    };
    mutable std::array<memo_shard, memo_shards> memo_;

    mutable std::mutex replay_mutex_;
    mutable std::unordered_map<key_type,
                               std::shared_ptr<const sequence_replay>,
                               key_hash>
        replay_cache_;

    mutable std::mutex proposal_mutex_;
    mutable std::unordered_map<
        key_type, std::shared_ptr<const std::vector<proposed_test>>,
        key_hash>
        proposal_cache_;
};

/// Engine-backed observational equivalence: same verdict as
/// observationally_equivalent(spec, a, b, max_states), shared through the
/// engine's memo.
[[nodiscard]] bool observationally_equivalent(const discrim_engine& engine,
                                              const diagnosis& a,
                                              const diagnosis& b,
                                              std::size_t max_states = 100'000);

}  // namespace cfsmdiag
