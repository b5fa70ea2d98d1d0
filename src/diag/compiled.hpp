// The flat compiled core: a `system` + diagnostic suite lowered into dense
// integer-indexed tables, built once per spec_context and queried by every
// per-fault diagnosis.
//
// Motivation: after the replay cache, the pipeline was overhead-bound —
// std::set churn in Steps 4/5A, per-replay simulator construction,
// per-diagnosis firing-index rebuilds, and per-candidate alphabet
// recomputation dominated wall time.  Everything in this header is
// a pure function of (spec, suite), so the campaign engine computes it
// exactly once:
//   - a dense transition universe (machine_offset[m] + local id), with the
//     effect tables (output, next state, kind, destination) the flat
//     stepper reads instead of `transition` records,
//   - per-machine (state × input) dispatch tables of dense ids,
//   - the admissible faulty-output pool of every transition (Step 5B's
//     `admissible_faulty_outputs`, precomputed instead of per candidate),
//   - per-case spec-run tables: encoded inputs, packed states, firing
//     index, (state, input) class representatives, and per-step fired
//     lists (the conflict-set bitmaps' raw material),
//   - a W-word state packing (bits per machine, W = `words` u64 words) that
//     turns system_state comparisons into integer compares.
//
// `compile_conflicts`/`materialize_*` are the bitset Steps 4-5A: conflict
// sets become bitmaps over the dense universe, ITC is their AND, and the
// public `conflict_sets`/`candidate_sets` structs are rebuilt only at the
// reporting boundary (ascending bit iteration == sorted std::set iteration,
// so the rebuilt structs are byte-identical to the reference path's).
//
// `flat_replayer` is the compiled Step 5B/6 hot path and the only
// production form of the prefix lemma (DESIGN.md §5c): a hypothesis's run
// equals the spec run until its target first fires, and again from every
// re-synchronization until the next firing, so only the stretches in
// between are stepped, with class memoization, epoch-tagged scratch (no
// per-call allocation) and an inlined stepper (no simulator construction
// per hypothesis).  Its verdicts are exactly the paper's full replay's.
// It checks a symptom report's suite cases (Step 5B, one override or the
// multi-fault extension's several) or one `flat_sequence` (Step 6's
// additional tests).
//
// `fault_dictionary` tabulates, once per (spec, suite), a whole-suite
// signature of every single-transition hypothesis's prediction, and
// indexes the hypotheses by signature; a flat_replayer given one flags
// the hypotheses that share the report's signature, or have none, and
// Step 5B replays only those (DESIGN.md §5i).
//
// The kernels that step packed states (flat_step, the replayer, the
// dictionary fill, the discrimination engine's joint BFS and packed_bfs,
// the search under the transition tour and the transfer sequences) are
// templates on the word count W: W = 1 is the one-word code, with every
// word index a constant 0, and W = runtime_words reads the width from
// `words` (DESIGN.md §5e).  Each entry point picks the instantiation once
// per call.
#pragma once

#include <algorithm>
#include <span>

#include "cfsm/trace.hpp"
#include "diag/candidates.hpp"
#include "diag/symptom.hpp"
#include "util/bitset.hpp"

namespace cfsmdiag {

/// Dense, integer-indexed lowering of one (spec, suite) pair.
struct compiled_spec {
    // --- dense transition universe ---------------------------------------
    /// machine_offset[m] + local id = dense id; machine_offset[M] = total.
    std::vector<std::uint32_t> machine_offset;
    std::uint32_t total = 0;
    /// Owning machine per dense id.
    std::vector<std::uint32_t> owner;

    // --- per-dense-id effect tables ---------------------------------------
    std::vector<std::uint32_t> out_sym;     ///< output symbol id
    std::vector<std::uint32_t> next_state;  ///< local next state
    std::vector<std::uint8_t> is_internal;  ///< 1 = internal-output
    std::vector<std::uint32_t> dest;        ///< receiver (internal only)
    dyn_bitset internal_mask;               ///< internal-output transitions

    // --- admissible faulty-output pools (CSR) -----------------------------
    /// pool of dense id d = pool_syms[pool_offset[d] .. pool_offset[d+1]),
    /// exactly admissible_faulty_outputs(spec, alphabets, d) in order.
    std::vector<std::uint32_t> pool_offset;
    std::vector<symbol> pool_syms;

    // --- single-transition hypothesis slots (the fault dictionary's index) -
    /// Dense id d's hypotheses occupy [slot_offset[d], slot_offset[d + 1]):
    /// transfer to state s at +s, output pool[j] at +S + j, and output
    /// pool[j] with transfer to s at +S + P + s * P + j (S = states of d's
    /// machine, P = its pool size).  The slots of the specified next state
    /// and output exist but are never asked for.
    std::vector<std::uint32_t> slot_offset;

    // --- dispatch tables --------------------------------------------------
    /// Machine m, local state s, input symbol i (< disp_stride[m]):
    /// dispatch[disp_offset[m] + s * disp_stride[m] + i] = dense id or
    /// invalid_index.
    std::vector<std::uint32_t> disp_offset;
    std::vector<std::uint32_t> disp_stride;
    std::vector<std::uint32_t> dispatch;

    // --- W-word state packing --------------------------------------------
    /// u64 words per packed global state.  Machine m's local state is the
    /// field (word[state_word[m]] >> state_shift[m]) & state_mask[m].  Fields
    /// go in machine order and never straddle two words, so a system of up
    /// to 64 state bits takes one word.
    std::uint32_t words = 1;
    /// Always true: every system packs into `words` words.  Kept because
    /// perfbench's facts line reads it.
    bool packable = true;
    std::vector<std::uint32_t> state_word;   ///< word index per machine
    std::vector<std::uint32_t> state_shift;  ///< bit offset in that word
    std::vector<std::uint64_t> state_mask;   ///< width mask (unshifted)
    std::vector<std::uint32_t> state_count;  ///< states per machine
    std::vector<std::uint64_t> initial_packed;  ///< `words` words

    // --- per-case spec-run tables (fault independent) ---------------------
    struct case_tables {
        /// Encoded inputs: in_port[k] == invalid_index means reset.
        std::vector<std::uint32_t> in_port;
        std::vector<std::uint32_t> in_sym;
        /// Packed spec state before each step: step k's `words` words
        /// start at k * words.
        std::vector<std::uint64_t> state_before;
        /// Packed expected (spec) observation of each step.
        std::vector<std::uint64_t> expected;
        /// (state, input) class representative per step (earliest step with
        /// the same packed before-state and input) — the suffix memo key.
        std::vector<std::uint32_t> rep;
        /// Dense per-transition first firing step; invalid_index = never.
        std::vector<std::uint32_t> first_fire;
        /// Dense per-transition sorted firing-step lists, CSR.
        std::vector<std::uint32_t> fire_off;  ///< [total + 1]
        std::vector<std::uint32_t> fire_steps;
        /// Dense ids fired per step, CSR (the conflict bitmaps' input).
        std::vector<std::uint32_t> step_off;  ///< [steps + 1]
        std::vector<std::uint32_t> step_fired;
    };
    std::vector<case_tables> cases;

    [[nodiscard]] std::uint32_t dense_id(
        global_transition_id t) const noexcept {
        return machine_offset[t.machine.value] + t.transition.value;
    }
    [[nodiscard]] global_transition_id global_id(
        std::uint32_t d) const noexcept {
        const std::uint32_t m = owner[d];
        return {machine_id{m}, transition_id{d - machine_offset[m]}};
    }

    /// Slot of "d transfers to s".
    [[nodiscard]] std::uint32_t transfer_slot(std::uint32_t d,
                                              std::uint32_t s) const noexcept {
        return slot_offset[d] + s;
    }
    /// Slot of "d outputs pool[j]" (s == invalid_index) or "d outputs
    /// pool[j] and transfers to s"; invalid_index when j is past d's pool
    /// (an output the dictionary does not cover).
    [[nodiscard]] std::uint32_t output_slot(
        std::uint32_t d, std::uint32_t j,
        std::uint32_t s = invalid_index) const noexcept {
        const std::uint32_t pool = pool_offset[d + 1] - pool_offset[d];
        if (j >= pool) return invalid_index;
        const std::uint32_t base = slot_offset[d] + state_count[owner[d]];
        return s == invalid_index ? base + j : base + pool + s * pool + j;
    }

    /// Packs `s` into the `words` words at `out`.
    void pack(const system_state& s, std::uint64_t* out) const noexcept {
        std::fill_n(out, words, std::uint64_t{0});
        for (std::size_t m = 0; m < s.states.size(); ++m)
            out[state_word[m]] |= static_cast<std::uint64_t>(s.states[m].value)
                                  << state_shift[m];
    }
    /// Machine m's local state in the packed state at `in`.
    [[nodiscard]] std::uint32_t field(const std::uint64_t* in,
                                      std::uint32_t m) const noexcept {
        return static_cast<std::uint32_t>((in[state_word[m]] >> state_shift[m]) &
                                          state_mask[m]);
    }
    /// The system_state packed at `in` (the inverse of pack).
    [[nodiscard]] system_state unpack(const std::uint64_t* in) const {
        system_state s;
        s.states.reserve(state_word.size());
        for (std::uint32_t m = 0; m < state_word.size(); ++m)
            s.states.push_back(state_id{field(in, m)});
        return s;
    }

    /// Words per state in a W-word kernel: W, or `words` for runtime_words.
    template <std::size_t W>
    [[nodiscard]] std::size_t words_in() const noexcept {
        if constexpr (W == 0) {
            return words;
        } else {
            return W;
        }
    }
    /// Word of machine m's field in a W-word kernel (always 0 when W = 1).
    template <std::size_t W>
    [[nodiscard]] std::uint32_t word_of(std::uint32_t m) const noexcept {
        if constexpr (W == 1) {
            return 0;
        } else {
            return state_word[m];
        }
    }
};

/// The W of the kernels' runtime-width instantiation (`words` > 1).
inline constexpr std::size_t runtime_words = 0;

/// Lowers (spec, suite) with the suite's Step-1 traces.  `traces` must be
/// the spec replay of `suite` (the spec_context guarantees this).
[[nodiscard]] compiled_spec compile_spec(const system& spec,
                                         const test_suite& suite,
                                         const suite_traces& traces);

/// A transition_override lowered to dense ids; invalid_index fields keep
/// the specified effect.  Shared by the flat replayer (Step 5B) and the
/// discrimination engine's joint stepper (Step 6).
struct flat_override {
    std::uint32_t target = invalid_index;
    std::uint32_t out = invalid_index;   ///< invalid = keep specified
    std::uint32_t next = invalid_index;
    std::uint32_t dest = invalid_index;
};

[[nodiscard]] flat_override lower_override(const compiled_spec& cs,
                                           const transition_override& ov);

/// Packed observation: 0 for ε, else ((port + 1) << 32) | symbol id.
/// Injective on everything a simulator can return (ε observations always
/// carry no port), so packed equality is observation equality.  Oracle
/// answers are held to the same shape (check_answer) before they are
/// packed.
[[nodiscard]] std::uint64_t pack_observation(const observation& o) noexcept;

/// The observation packed as `packed` (the inverse of pack_observation).
[[nodiscard]] inline observation unpack_observation(
    std::uint64_t packed) noexcept {
    if (packed == 0) return observation::none();
    return observation::at(
        machine_id{static_cast<std::uint32_t>(packed >> 32) - 1},
        symbol{static_cast<std::uint32_t>(packed)});
}

/// flat_step's default hook: fired transitions go unreported, and the
/// stepper compiles as if it had no hook.
struct no_fire_hook {
    void operator()(std::uint32_t) const noexcept {}
};

/// One global input applied to the packed state at `state` (W words, see
/// compiled_spec::words_in) under `ov_count` overrides (distinct targets).
/// Returns the packed observation; when `fired` is non-null it is set to
/// whether the chain fired at least one transition (the joint search's
/// `progressed` bit), and when `target_hit` is non-null, to whether any
/// overridden target fired — set as the target fires, so it holds when
/// the chain throws later (the joint search's cue to step the spec too).
/// `on_fire` is called with the dense id of every transition the chain
/// fires, in firing order.  Mutates `state` in place.  Error behaviour —
/// internal ε message, hop budget — matches simulator::apply exactly,
/// message text included; `spec` is used for error labels only.
/// Instantiated for W = 1 and runtime_words, with no_fire_hook and with
/// fire_list.
template <std::size_t W, typename OnFire = no_fire_hook>
std::uint64_t flat_step(const compiled_spec& cs, const system& spec,
                        std::uint64_t* state, std::uint32_t port,
                        std::uint32_t sym, const flat_override* ovs,
                        std::size_t ov_count, bool* fired = nullptr,
                        bool* target_hit = nullptr, OnFire on_fire = {});

/// packed_bfs's flat_step hook: appends each fired dense id to `out`, and
/// throws as simulator::apply does when an internal transition addresses no
/// other machine (flat_step follows `dest` unchecked, and a system that
/// skipped validate_structure may carry such a transition).
struct fire_list {
    const compiled_spec* cs;
    const system* spec;
    std::vector<std::uint32_t>* out;

    void operator()(std::uint32_t d) const;
};

/// The BFS kernel of the spec's own global searches: the transition
/// tour's extensions (testgen/tour) and the transfer sequences of Step 6
/// and testgen (cfsm/search).  Node 0 is the start; nodes keep W-word
/// packed states contiguously, with parent and via-column arrays, and a
/// packed_set over their words is the visited set.  The columns are the
/// port inputs in all_port_inputs(spec) order.  A step is flat_step on the
/// spec, with no overrides and fire_list as its hook, so it ticks
/// simulated_step_count once and throws what simulator::apply throws.  The
/// kernel owns storage and stepping; each caller's loop keeps
/// its own rules: what counts as a hit, which steps it skips, and what its
/// visited cap does.  Every buffer is the kernel's own and dies with it.
/// Instantiated for W = 1 and runtime_words.
template <std::size_t W>
class packed_bfs {
  public:
    /// `cs` must be a lowering of `spec` (compile_spec(spec, {}, {})
    /// suffices); both must outlive the kernel.
    packed_bfs(const compiled_spec& cs, const system& spec);

    [[nodiscard]] const std::vector<global_input>& columns() const noexcept {
        return columns_;
    }
    /// Forgets every node; the W words at `start` become node 0.
    void restart(const std::uint64_t* start);
    [[nodiscard]] std::uint32_t size() const noexcept {
        return static_cast<std::uint32_t>(parent_.size());
    }
    [[nodiscard]] const std::uint64_t* state(std::uint32_t n) const noexcept {
        return states_.data() + n * w_;
    }

    /// Applies column `col` to the W words at `state`, in place; returns
    /// the dense ids it fired, in firing order (empty for an ε step).
    const std::vector<std::uint32_t>& advance(std::uint64_t* state,
                                              std::uint32_t col);
    /// Applies column `col` to a copy of node n's state (see visit).
    const std::vector<std::uint32_t>& step(std::uint32_t n,
                                           std::uint32_t col);
    /// Adds the last step's state as node size(), child of the node it
    /// stepped by its column, unless an equal state is a node already;
    /// returns whether it was added.
    bool visit();
    /// The columns from node 0 to node n, in order.
    [[nodiscard]] std::vector<std::uint32_t> path(std::uint32_t n) const;

  private:
    const compiled_spec* cs_;
    const system* spec_;
    std::size_t w_;
    std::vector<global_input> columns_;
    std::vector<std::uint64_t> states_;
    std::vector<std::uint32_t> parent_;
    std::vector<std::uint32_t> via_;
    packed_set visited_;
    std::vector<std::uint64_t> next_;  ///< the last step's state
    std::uint32_t next_parent_ = 0;
    std::uint32_t next_via_ = 0;
    std::vector<std::uint32_t> fired_;
};

/// Step 4 as bitmaps: one fired-prefix bitmap per symptomatic case (steps
/// [0, first_symptom]) over the dense universe, plus their intersection
/// (Step 5A's ITC, globally).  Bitmaps live in `arena`.
struct compiled_conflicts {
    std::vector<dyn_bitset> per_case;  ///< ordinal == symptomatic_cases
    dyn_bitset itc;
};

[[nodiscard]] compiled_conflicts compile_conflicts(
    const compiled_spec& cs, const symptom_report& report, bit_arena& arena);

/// Reporting-boundary rebuilds: byte-identical to generate_conflict_sets /
/// generate_candidates on the same report (ascending bit iteration ==
/// sorted set iteration).
[[nodiscard]] conflict_sets materialize_conflict_sets(
    const compiled_spec& cs, const compiled_conflicts& cc);

[[nodiscard]] candidate_sets materialize_candidate_sets(
    const compiled_spec& cs, const symptom_report& report,
    const compiled_conflicts& cc);

/// Step 5B's fault dictionary over one compiled (spec, suite): for every
/// hypothesis slot (compiled_spec::slot_offset), the sum over the suite
/// positions where spec ⊕ h's observation differs from the spec's of
/// term(position, predicted) − term(position, expected), a position-keyed
/// additive hash.  Equal whole-suite predictions give equal signatures, so
/// a report whose signature differs refutes the hypothesis.  The index
/// `by_signature` turns Step 5B's question around: which hypotheses share
/// the report's signature (DESIGN.md §5i).
struct fault_dictionary {
    /// A slot without a signature: its fill threw (internal ε, hop budget),
    /// it is the specified next state or output, or its sum happened to
    /// equal this value.  Step 5B replays such hypotheses.
    static constexpr std::uint64_t no_signature = ~std::uint64_t{0};

    std::vector<std::uint64_t> signature;  ///< indexed by slot
    /// Every slot Step 5B can ask for, ordered by (signature, slot).  The
    /// specified next state's transfer slot and its output+transfer row
    /// are never asked for and are left out.
    std::vector<std::uint32_t> by_signature;

    /// Orders `by_signature` by (signature, slot): the fill's last step.
    void sort_index();
    /// The askable slots whose signature is `sig`, ascending.
    [[nodiscard]] std::span<const std::uint32_t> group(
        std::uint64_t sig) const noexcept;
    /// The slots Step 5B replays on a report whose signature is
    /// `observed`: its group merged with the no_signature group, ascending
    /// (that one group when `observed` is no_signature).
    [[nodiscard]] std::vector<std::uint32_t> flagged(
        std::uint64_t observed) const;
};

/// Fills the dictionary of every slot of `cs` with flat_step, walking each
/// case from the target's first firing and jumping re-synchronized
/// stretches to its next firing (DESIGN.md §5c), and sorts the askable
/// slots into its index.
[[nodiscard]] fault_dictionary build_fault_dictionary(const compiled_spec& cs,
                                                      const system& spec);

/// Step 6's replay of one input sequence from reset on the compiled
/// tables: the spec run of `inputs` as one case's tables (packed state
/// before each step, packed expected observation, firing index and
/// (state, input) classes), built by one flat_step pass.  predict() and a
/// flat_replayer over the sequence then step a hypothesis only from its
/// target's first firing, jumping re-synchronized stretches to the next
/// firing.  Immutable after construction, so one replay may be shared
/// across threads (discrim_engine::replay_for).  `cs` and `spec` must
/// outlive it.
class flat_sequence {
  public:
    /// Throws what simulator::apply throws on the spec run of `inputs`.
    flat_sequence(const compiled_spec& cs, const system& spec,
                  const std::vector<global_input>& inputs);

    [[nodiscard]] const compiled_spec::case_tables& tables() const noexcept {
        return tables_;
    }
    [[nodiscard]] std::size_t size() const noexcept {
        return tables_.in_port.size();
    }
    /// The spec's observations of the inputs (observe(spec, inputs)).
    [[nodiscard]] std::vector<observation> expected() const;
    /// The packed observations of spec ⊕ `ov` on the inputs; equals
    /// observe(spec, inputs, ov), packed.
    [[nodiscard]] std::vector<std::uint64_t> predict(
        const transition_override& ov) const;

  private:
    friend class flat_replayer;
    const compiled_spec* cs_;
    const system* spec_;
    compiled_spec::case_tables tables_;
};

/// Compiled hypothesis replayer: same verdicts as a full replay of spec ⊕
/// the hypothesis from reset, over packed states.  Built for one symptom
/// report (Step 5B's suite cases) or for one answer to a flat_sequence
/// (Step 6).  Each case is resolved by the prefix lemma +
/// re-synchronization (bumping the case-skip/suffix counters), never
/// replayed from reset.  Given a fault dictionary and a report without
/// quarantined cases, it flags the slots whose signature equals the
/// report's or is no_signature: a hypothesis with any other slot predicts
/// the suite differently, so Step 5B refutes it without a replay.
///
/// Not thread-safe (owns scratch buffers); build one per diagnosis.
class flat_replayer {
  public:
    flat_replayer(const compiled_spec& cs, const system& spec,
                  const symptom_report& report,
                  const fault_dictionary* dictionary = nullptr);

    /// Checks hypotheses against `observed`, the packed answer to `seq`'s
    /// inputs (one observation per input).  `seq` must outlive the
    /// replayer.
    flat_replayer(const flat_sequence& seq,
                  std::vector<std::uint64_t> observed);

    /// The flagged slots, ascending, or nullptr when every hypothesis is
    /// flagged (no dictionary, or a report with a quarantined case).
    [[nodiscard]] const std::vector<std::uint32_t>* flagged() const noexcept {
        return every_hypothesis_flagged_ ? nullptr : &flagged_;
    }

    /// Whether spec ⊕ `ov` reproduces the observations.  Counts no
    /// hypothesis replay and polls no budget: Step 5B charges those for
    /// every hypothesis it enumerates, replayed or not.
    [[nodiscard]] bool matches(const transition_override& ov) {
        return replay(ov);
    }

    /// Whether spec ⊕ all of `ovs` (distinct targets) reproduces the
    /// observations: the multi-fault extension's check, where the prefix
    /// lemma holds up to the earliest first firing of any target.  Counts
    /// no hypothesis replay and polls no budget.
    [[nodiscard]] bool consistent(
        const std::vector<transition_override>& ovs);

  private:
    struct case_obs {
        std::vector<std::uint64_t> observed;  ///< packed observations
        const std::vector<std::size_t>* symptom_steps;
        std::uint32_t first_symptom = invalid_index;
        bool quarantined = false;
    };

    [[nodiscard]] bool replay(const transition_override& ov);
    /// N overrides at `ovs`; N = 0 reads the count from `count`.
    template <std::size_t W, std::size_t N>
    [[nodiscard]] bool replay(const flat_override* ovs, std::size_t count);
    template <std::size_t W, std::size_t N>
    [[nodiscard]] bool suffix_consistent(std::size_t ci, std::uint32_t f,
                                         const flat_override* ovs,
                                         std::size_t count);
    /// Sizes the suffix memo for cases of up to `max_len` steps.
    void size_scratch(std::size_t max_len);

    const compiled_spec* cs_;
    const system* spec_;  ///< error labels only
    /// The spec run of each case: cs_->cases, or the one sequence.
    const compiled_spec::case_tables* tables_;
    std::vector<case_obs> cases_;
    /// The sequence's symptom steps (the report holds Step 5B's).
    std::vector<std::size_t> sequence_symptoms_;
    /// Epoch-tagged suffix memo, indexed by class representative step;
    /// memo_after_ holds `words` words per step.
    std::vector<std::uint32_t> memo_epoch_;
    std::vector<std::uint64_t> memo_obs_;
    std::vector<std::uint64_t> memo_after_;
    std::uint32_t epoch_ = 0;
    /// The unsynchronized mutated state of the runtime-width replay.
    std::vector<std::uint64_t> state_;
    /// See flagged().  Declared after the members the replay reads, so
    /// that their offsets, and the replay's code, stay as they were.
    std::vector<std::uint32_t> flagged_;
    bool every_hypothesis_flagged_ = true;
};

}  // namespace cfsmdiag
