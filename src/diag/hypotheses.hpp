// Step 5B's cost counters.
//
// Step 5B checks each hypothesis the paper's procedures `findendingstates`,
// `calouts` and `processtate&out` name (EndStates, outputs, statout) by
// replaying the suite on the spec mutated by it.  diagnose() runs those
// replays on the compiled core (diag/compiled.hpp: flat_replayer, with the
// fault dictionary when a campaign built one); the paper's full replay
// from reset survives only as the test-side oracle.  The thread-local
// counters below make the work observable per diagnosis: snapshot before
// and after a diagnose() run and subtract.
#pragma once

#include <cstddef>

namespace cfsmdiag {

namespace detail {
inline constinit thread_local std::size_t replay_count = 0;

/// Adds `n` Step 5B hypotheses to the hypothesis_replays() counter.
inline void note_hypothesis_replays(std::size_t n = 1) noexcept {
    replay_count += n;
}

/// Counter hooks for the prefix lemma (flat_replayer): a case resolved
/// without stepping, and a case stepped from a firing.
void note_replay_case_skip() noexcept;
void note_replay_suffix() noexcept;
}  // namespace detail

/// Number of Step 5B hypothesis checks performed by the *calling thread*
/// so far.  Thread-local, so parallel campaign workers get attributable
/// per-fault counts without synchronization; the count is monotone —
/// snapshot before and after a diagnose() run and subtract.  A hypothesis
/// the fault dictionary refutes without a replay still counts, so the
/// count is part of a campaign entry's identity.
[[nodiscard]] inline std::size_t hypothesis_replays() noexcept {
    return detail::replay_count;
}

/// Steps of the spec or of a mutated spec (flat_step and
/// simulator::apply calls) performed by the calling thread so far.  Same
/// thread-local snapshot-and-subtract protocol as hypothesis_replays().
[[nodiscard]] std::size_t simulated_steps() noexcept;

/// Cases the prefix lemma resolved without stepping (the hypothesis's
/// target never fires in them), and cases stepped from a firing, by the
/// calling thread so far: Step 5B's suite cases and Step 6's additional
/// tests alike.  Same protocol as hypothesis_replays().
[[nodiscard]] std::size_t replay_cache_case_skips() noexcept;
[[nodiscard]] std::size_t replay_cache_suffix_replays() noexcept;

}  // namespace cfsmdiag
