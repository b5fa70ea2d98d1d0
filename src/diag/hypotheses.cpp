#include "diag/hypotheses.hpp"

#include "cfsm/simulator.hpp"

namespace cfsmdiag {
namespace {

thread_local std::size_t case_skip_count = 0;
thread_local std::size_t suffix_replay_count = 0;

}  // namespace

std::size_t simulated_steps() noexcept {
    return detail::simulated_step_count;
}

std::size_t replay_cache_case_skips() noexcept { return case_skip_count; }
std::size_t replay_cache_suffix_replays() noexcept {
    return suffix_replay_count;
}

namespace detail {
void note_replay_case_skip() noexcept { ++case_skip_count; }
void note_replay_suffix() noexcept { ++suffix_replay_count; }
}  // namespace detail

}  // namespace cfsmdiag
