#include <algorithm>

#include "diag/compiled.hpp"
#include "diag/discriminate.hpp"

namespace cfsmdiag {

template <std::size_t W>
packed_bfs<W>::packed_bfs(const compiled_spec& cs, const system& spec)
    : cs_(&cs),
      spec_(&spec),
      w_(cs.words_in<W>()),
      columns_(all_port_inputs(spec)),
      visited_(w_),
      next_(w_) {}

template <std::size_t W>
void packed_bfs<W>::restart(const std::uint64_t* start) {
    states_.assign(start, start + w_);
    parent_.assign(1, invalid_index);
    via_.assign(1, invalid_index);
    visited_.clear();
    visited_.insert(states_.data(), 0);
}

template <std::size_t W>
const std::vector<std::uint32_t>& packed_bfs<W>::advance(std::uint64_t* state,
                                                         std::uint32_t col) {
    fired_.clear();
    (void)flat_step<W>(*cs_, *spec_, state, columns_[col].port.value,
                       columns_[col].input.id, nullptr, 0, nullptr, nullptr,
                       fire_list{cs_, spec_, &fired_});
    return fired_;
}

template <std::size_t W>
const std::vector<std::uint32_t>& packed_bfs<W>::step(std::uint32_t n,
                                                      std::uint32_t col) {
    std::copy_n(state(n), w_, next_.data());
    next_parent_ = n;
    next_via_ = col;
    return advance(next_.data(), col);
}

template <std::size_t W>
bool packed_bfs<W>::visit() {
    const std::uint32_t n = size();
    states_.insert(states_.end(), next_.begin(), next_.end());
    if (!visited_.insert(states_.data(), n)) {
        states_.resize(states_.size() - w_);
        return false;
    }
    parent_.push_back(next_parent_);
    via_.push_back(next_via_);
    return true;
}

template <std::size_t W>
std::vector<std::uint32_t> packed_bfs<W>::path(std::uint32_t n) const {
    std::vector<std::uint32_t> cols;
    for (; parent_[n] != invalid_index; n = parent_[n]) cols.push_back(via_[n]);
    std::reverse(cols.begin(), cols.end());
    return cols;
}

template class packed_bfs<1>;
template class packed_bfs<runtime_words>;

}  // namespace cfsmdiag
