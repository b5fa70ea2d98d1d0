#include "cfsm/system.hpp"

#include "util/error.hpp"

namespace cfsmdiag {

system::system(std::string name, symbol_table symbols,
               std::vector<fsm> machines)
    : name_(std::move(name)),
      symbols_(std::move(symbols)),
      machines_(std::move(machines)) {
    detail::require(!machines_.empty(), [&] {
        return "system '" + name_ + "': needs at least one machine";
    });
    for (const auto& m : machines_) m.validate();
}

const fsm& system::machine(machine_id m) const {
    detail::require(m.value < machines_.size(), [&] {
        return "system '" + name_ + "': machine index out of range";
    });
    return machines_[m.value];
}

std::string system::transition_label(global_transition_id id) const {
    const fsm& m = machine(id.machine);
    return m.name() + "." + m.at(id.transition).name;
}

std::size_t system::total_transitions() const noexcept {
    std::size_t n = 0;
    for (const auto& m : machines_) n += m.transitions().size();
    return n;
}

std::vector<global_transition_id> system::all_transitions() const {
    std::vector<global_transition_id> out;
    out.reserve(total_transitions());
    for (std::uint32_t mi = 0; mi < machines_.size(); ++mi) {
        for (std::uint32_t ti = 0;
             ti < static_cast<std::uint32_t>(
                      machines_[mi].transitions().size());
             ++ti) {
            out.push_back({machine_id{mi}, transition_id{ti}});
        }
    }
    return out;
}

system system::with_transition_replaced(global_transition_id id,
                                        std::optional<symbol> new_output,
                                        std::optional<state_id> new_target)
    const {
    system copy = *this;
    copy.machines_[id.machine.value] =
        machines_[id.machine.value].with_transition_replaced(
            id.transition, new_output, new_target);
    return copy;
}

}  // namespace cfsmdiag
