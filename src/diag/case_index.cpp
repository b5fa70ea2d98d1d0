// A case's class representatives and firing index (compiled.hpp).  Like
// the dictionary's index sort (fault_dictionary.cpp), this sort lives
// outside compiled.cpp: code added there changes how GCC compiles the
// replayer's hot loops.
#include <algorithm>
#include <numeric>

#include "diag/compiled.hpp"

namespace cfsmdiag {

void index_case(compiled_spec::case_tables& ct, std::uint32_t total,
                std::size_t w) {
    const std::size_t n = ct.in_port.size();

    // Class representatives: the steps sorted by (input, packed
    // before-state, step); a run of equal keys is one class, and its first
    // step is the earliest.
    const auto compare = [&ct, w](std::uint32_t a, std::uint32_t b) {
        if (ct.in_port[a] != ct.in_port[b])
            return ct.in_port[a] < ct.in_port[b] ? -1 : 1;
        if (ct.in_sym[a] != ct.in_sym[b])
            return ct.in_sym[a] < ct.in_sym[b] ? -1 : 1;
        const std::uint64_t* sa = ct.state_before.data() + a * w;
        const std::uint64_t* sb = ct.state_before.data() + b * w;
        for (std::size_t i = 0; i < w; ++i)
            if (sa[i] != sb[i]) return sa[i] < sb[i] ? -1 : 1;
        return 0;
    };
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&compare](std::uint32_t a, std::uint32_t b) {
                  const int c = compare(a, b);
                  return c != 0 ? c < 0 : a < b;
              });
    ct.rep.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t k = order[i];
        ct.rep[k] = i > 0 && compare(order[i - 1], k) == 0
                        ? ct.rep[order[i - 1]]
                        : k;
    }

    // Firing index: count each transition's firing steps, then place them.
    // A chain step may fire the same transition more than once; its step
    // is recorded once.
    ct.fire_off.assign(std::size_t{total} + 1, 0);
    std::vector<std::uint32_t> cursor(total, invalid_index);
    for (std::uint32_t k = 0; k < n; ++k) {
        for (std::uint32_t i = ct.step_off[k]; i < ct.step_off[k + 1]; ++i) {
            const std::uint32_t d = ct.step_fired[i];
            if (cursor[d] == k) continue;
            cursor[d] = k;
            ++ct.fire_off[d + 1];
        }
    }
    std::partial_sum(ct.fire_off.begin(), ct.fire_off.end(),
                     ct.fire_off.begin());
    ct.fire_steps.resize(ct.fire_off[total]);
    std::copy_n(ct.fire_off.begin(), total, cursor.begin());
    for (std::uint32_t k = 0; k < n; ++k) {
        for (std::uint32_t i = ct.step_off[k]; i < ct.step_off[k + 1]; ++i) {
            std::uint32_t& at = cursor[ct.step_fired[i]];
            if (at > ct.fire_off[ct.step_fired[i]] &&
                ct.fire_steps[at - 1] == k)
                continue;
            ct.fire_steps[at++] = k;
        }
    }
    ct.first_fire.resize(total);
    for (std::uint32_t d = 0; d < total; ++d)
        ct.first_fire[d] = ct.fire_off[d] == ct.fire_off[d + 1]
                               ? invalid_index
                               : ct.fire_steps[ct.fire_off[d]];
}

}  // namespace cfsmdiag
