#include "fsm/symbol.hpp"

namespace cfsmdiag {

symbol_table::symbol_table() {
    names_.emplace_back("-");
    index_.emplace("-", 0);
    index_.emplace("ε", 0);
}

symbol symbol_table::intern(std::string_view text) {
    detail::require(!text.empty(), "symbol_table::intern: empty spelling");
    auto it = index_.find(std::string(text));
    if (it != index_.end()) return symbol{it->second};
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(text);
    index_.emplace(std::string(text), id);
    return symbol{id};
}

symbol symbol_table::lookup(std::string_view text) const {
    auto it = index_.find(std::string(text));
    detail::require(it != index_.end(), [&] {
        return "symbol_table::lookup: unknown symbol '" + std::string(text) +
               "'";
    });
    return symbol{it->second};
}

bool symbol_table::contains(std::string_view text) const {
    return index_.find(std::string(text)) != index_.end();
}

const std::string& symbol_table::name(symbol s) const {
    detail::require(s.id < names_.size(),
                    "symbol_table::name: symbol id out of range");
    return names_[s.id];
}

}  // namespace cfsmdiag
