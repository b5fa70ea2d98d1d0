// The fault dictionary's signature index (DESIGN.md §5i).  It lives in a
// file of its own: with the sort in compiled.cpp next to the fill, GCC
// compiled the replayer's hot loops there differently, and perfbench's
// one_shot, which replays every hypothesis, read a slower fault_p50.
#include <algorithm>

#include "diag/compiled.hpp"

namespace cfsmdiag {

void fault_dictionary::sort_index() {
    std::sort(by_signature.begin(), by_signature.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  const std::uint64_t sa = signature[a];
                  const std::uint64_t sb = signature[b];
                  return sa != sb ? sa < sb : a < b;
              });
}

std::span<const std::uint32_t> fault_dictionary::group(
    std::uint64_t sig) const noexcept {
    const auto lo = std::partition_point(
        by_signature.begin(), by_signature.end(),
        [&](std::uint32_t slot) { return signature[slot] < sig; });
    const auto hi = std::partition_point(
        lo, by_signature.end(),
        [&](std::uint32_t slot) { return signature[slot] == sig; });
    return {lo, hi};
}

std::vector<std::uint32_t> fault_dictionary::flagged(
    std::uint64_t observed) const {
    const auto same = group(observed);
    if (observed == no_signature) return {same.begin(), same.end()};
    const auto none = group(no_signature);
    std::vector<std::uint32_t> out(same.size() + none.size());
    std::merge(same.begin(), same.end(), none.begin(), none.end(),
               out.begin());
    return out;
}

}  // namespace cfsmdiag
