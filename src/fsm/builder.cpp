#include "fsm/builder.hpp"

#include <algorithm>

namespace cfsmdiag {

fsm_builder::fsm_builder(std::string machine_name, symbol_table& symbols)
    : name_(std::move(machine_name)), symbols_(symbols) {}

fsm_builder& fsm_builder::state(std::string_view name) {
    intern_state(name);
    return *this;
}

fsm_builder& fsm_builder::external(std::string_view transition_name,
                                   std::string_view from,
                                   std::string_view input,
                                   std::string_view output,
                                   std::string_view to) {
    add(transition_name, from, input, output, to, output_kind::external,
        machine_id{});
    return *this;
}

fsm_builder& fsm_builder::internal(std::string_view transition_name,
                                   std::string_view from,
                                   std::string_view input,
                                   std::string_view output,
                                   std::string_view to,
                                   machine_id destination) {
    add(transition_name, from, input, output, to, output_kind::internal,
        destination);
    return *this;
}

fsm fsm_builder::build(std::string_view initial) const {
    return fsm(name_, state_names_, id_of(initial), transitions_);
}

state_id fsm_builder::id_of(std::string_view state_name) const {
    auto it = std::find(state_names_.begin(), state_names_.end(), state_name);
    detail::require(it != state_names_.end(), [&] {
        return "fsm_builder: unknown state '" + std::string(state_name) +
               "' in machine " + name_;
    });
    return state_id{
        static_cast<std::uint32_t>(it - state_names_.begin())};
}

state_id fsm_builder::intern_state(std::string_view name) {
    detail::require(!name.empty(), "fsm_builder: empty state name");
    auto it = std::find(state_names_.begin(), state_names_.end(), name);
    if (it != state_names_.end())
        return state_id{
            static_cast<std::uint32_t>(it - state_names_.begin())};
    state_names_.emplace_back(name);
    return state_id{static_cast<std::uint32_t>(state_names_.size() - 1)};
}

void fsm_builder::add(std::string_view transition_name, std::string_view from,
                      std::string_view input, std::string_view output,
                      std::string_view to, output_kind kind,
                      machine_id destination) {
    transition t;
    t.from = intern_state(from);
    t.to = intern_state(to);
    t.input = symbols_.intern(input);
    t.output = output == "-" || output == "ε" ? symbol::epsilon()
                                              : symbols_.intern(output);
    t.kind = kind;
    t.destination = destination;
    t.name = std::string(transition_name);
    transitions_.push_back(std::move(t));
}

}  // namespace cfsmdiag
