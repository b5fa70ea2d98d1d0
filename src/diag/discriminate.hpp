// Adaptive discrimination between fault hypotheses.
//
// After Step 5C the diagnoser holds a set of concrete hypotheses ("T outputs
// o", "T transfers to s", ...), exactly one of which matches the IUT (the
// single-transition-fault assumption plus Step 5B's completeness).  A test
// discriminates if at least two live hypotheses predict different
// observations for it; applying it to the IUT then eliminates every
// hypothesis whose prediction disagrees with reality.
//
// The paper's Step 6 proposes tests of a particular shape (transfer sequence
// + suspect input + W_k/U_k probes); the tracker here is the shape-agnostic
// engine underneath: it predicts, checks whether a proposed test splits the
// live set, applies results, and — when the structured proposals run dry —
// searches the joint state space of the live hypotheses for a shortest
// splitting sequence (guaranteeing maximal discrimination, our completeness
// fallback).  Hypotheses that survive everything are observationally
// equivalent: the fault is localized up to equivalence, which is the best
// any black-box diagnoser can do.  Every prediction runs on the compiled
// tables of the tracker's discrimination engine (diag/discrim_engine.hpp):
// its flat replays for splits()/apply_result() and its joint BFS for the
// splitting sequence.
#pragma once

#include <optional>

#include "diag/diagnosis.hpp"
#include "testgen/testcase.hpp"

namespace cfsmdiag {

class discrim_engine;

/// The joint search's input enumeration: every (port, input symbol) pair,
/// machines in index order, each machine's input alphabet in sorted-id
/// order.  The discrimination engine's BFS and the transfer searches
/// enumerate inputs in this order (part of result identity).
[[nodiscard]] std::vector<global_input> all_port_inputs(const system& spec);

class hypothesis_tracker {
  public:
    /// Tracks `initial` (sorted and deduplicated) on `engine`'s compiled
    /// tables; the engine must outlive the tracker.
    hypothesis_tracker(const discrim_engine& engine,
                       std::vector<diagnosis> initial);

    [[nodiscard]] const std::vector<diagnosis>& alive() const noexcept {
        return alive_;
    }
    [[nodiscard]] std::size_t count() const noexcept {
        return alive_.size();
    }

    /// True if at least two live hypotheses predict different observations
    /// for the test (from reset).  Like apply_result(), steps each
    /// hypothesis only from its first firing on the engine's flat replay of
    /// `inputs`; the verdict equals comparing observe(spec, inputs,
    /// hypothesis) outputs.
    [[nodiscard]] bool splits(const std::vector<global_input>& inputs) const;

    /// Drops every live hypothesis whose prediction differs from
    /// `observed` (all of them when `observed` has a different length).
    /// Returns the number eliminated.
    std::size_t apply_result(const std::vector<global_input>& inputs,
                             const std::vector<observation>& observed);

    /// Shortest input sequence (from reset) on which two live hypotheses
    /// disagree, found by the engine's BFS over the joint hypothesis state
    /// space; nullopt when all live hypotheses are observationally
    /// equivalent (or the bound is hit).
    [[nodiscard]] std::optional<std::vector<global_input>>
    find_splitting_sequence(std::size_t max_joint_states = 100'000) const;

  private:
    const discrim_engine* engine_;
    std::vector<diagnosis> alive_;
};

/// True if spec⊕a and spec⊕b produce identical observations on every input
/// sequence (pairwise joint BFS; `max_states` bounds the search — a hit
/// bound reports equivalent).  Lowers `spec` for this one call; a caller
/// with a spec_context asks its engine (diag/discrim_engine.hpp).
[[nodiscard]] bool observationally_equivalent(
    const system& spec, const diagnosis& a, const diagnosis& b,
    std::size_t max_states = 100'000);

}  // namespace cfsmdiag
