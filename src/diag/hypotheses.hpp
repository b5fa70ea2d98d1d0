// Step 5B (hypothesis checking): EndStates, outputs, statout.
//
// Every check follows the paper's procedures `findendingstates`, `calouts`
// and `processtate&out`: mutate the specification's suspect transition,
// re-run the *entire* test suite against the mutated spec, and keep the
// hypothesis iff the new expected outputs equal the IUT's observed outputs
// on every test case.  The mutation is a simulator overlay, so no system is
// copied.
//
//   EndStates(T) — states s ≠ NextState(T) such that "T transfers to s"
//                  explains all observations (transfer-fault hypotheses),
//   outputs(T)   — outputs o ≠ Output(T) from the admissible pool such that
//                  "T outputs o" explains all observations (output-fault
//                  hypotheses; pool respects the address component),
//   statout(T)   — couples (s, o) such that "T outputs o and transfers to s"
//                  explains all observations (double-fault hypotheses; the
//                  couple with s = NextState(T) degenerates to a pure output
//                  fault and is reported in outputs instead).
#pragma once

#include <utility>

#include "diag/replay_cache.hpp"
#include "diag/symptom.hpp"

namespace cfsmdiag {

/// True iff the mutated spec reproduces the IUT's observed outputs on every
/// test case of the report.  When `cache` is non-null the check runs
/// through the replay cache (prefix skipping + suffix simulation) instead
/// of a full from-reset replay; the verdict is identical either way.  The
/// uncached form is the paper's procedure verbatim: diagnose() never runs
/// it, and the tests use it as the oracle for every faster Step 5B path.
[[nodiscard]] bool hypothesis_consistent(const system& spec,
                                         const test_suite& suite,
                                         const symptom_report& report,
                                         const transition_override& ov,
                                         const replay_cache* cache = nullptr);

namespace detail {
inline constinit thread_local std::size_t replay_count = 0;

/// Bumps the hypothesis_replays() counter.  The compiled core
/// (flat_replayer) checks hypotheses without going through
/// hypothesis_consistent(); it calls this so the per-fault replay counts —
/// part of a campaign entry's identity — stay equal across paths.  Inline:
/// it runs once per Step 5B hypothesis.
inline void note_hypothesis_replay() noexcept { ++replay_count; }
}  // namespace detail

/// Number of hypothesis replays (`hypothesis_consistent` calls) performed
/// by the *calling thread* so far.  Thread-local, so parallel campaign
/// workers get attributable per-fault counts without synchronization; the
/// count is monotone — snapshot before and after a diagnose() run and
/// subtract.  Cached, uncached and compiled replays count alike, so the
/// count is the same on every Step 5B path, and a hypothesis the fault
/// dictionary refutes without a replay still counts.
[[nodiscard]] inline std::size_t hypothesis_replays() noexcept {
    return detail::replay_count;
}

/// Simulator steps (`simulator::apply` calls) performed by the calling
/// thread so far.  Same thread-local snapshot-and-subtract protocol as
/// hypothesis_replays(); together they make the replay cache's savings
/// observable (replays stay constant, steps drop).
[[nodiscard]] std::size_t simulated_steps() noexcept;


/// findendingstates for one transition.
[[nodiscard]] std::vector<state_id> end_states(const system& spec,
                                               const test_suite& suite,
                                               const symptom_report& report,
                                               global_transition_id t,
                                               const replay_cache* cache =
                                                   nullptr);

/// calouts for one transition over an explicit pool of candidate outputs
/// (the caller supplies the admissible faulty outputs; entries equal to the
/// specified output are skipped).
[[nodiscard]] std::vector<symbol> consistent_outputs(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const std::vector<symbol>& pool,
    const replay_cache* cache = nullptr);

/// processtate&out: all (state, output) couples, state ≠ NextState(T),
/// output from `pool` (≠ specified output).
[[nodiscard]] std::vector<std::pair<state_id, symbol>> consistent_statout(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const std::vector<symbol>& pool,
    const replay_cache* cache = nullptr);

/// Addressing extension: destinations d ≠ the specified one such that "T
/// sends its message to M_d" explains all observations.  Empty for
/// external-output transitions.
[[nodiscard]] std::vector<machine_id> consistent_destinations(
    const system& spec, const test_suite& suite, const symptom_report& report,
    global_transition_id t, const replay_cache* cache = nullptr);

}  // namespace cfsmdiag
