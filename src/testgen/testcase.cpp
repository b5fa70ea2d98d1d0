#include "testgen/testcase.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace cfsmdiag {

test_case test_case::from_inputs(std::string name,
                                 std::vector<global_input> seq,
                                 bool prepend_reset) {
    test_case tc;
    tc.name = std::move(name);
    if (prepend_reset &&
        (seq.empty() || seq.front().action != global_input::kind::reset)) {
        tc.inputs.push_back(global_input::reset());
    }
    tc.inputs.insert(tc.inputs.end(), seq.begin(), seq.end());
    return tc;
}

std::size_t test_suite::total_inputs() const noexcept {
    std::size_t n = 0;
    for (const auto& tc : cases) n += tc.inputs.size();
    return n;
}

void test_suite::extend(const test_suite& other) {
    cases.insert(cases.end(), other.cases.begin(), other.cases.end());
}

std::string to_string(const test_case& tc, const symbol_table& symbols) {
    std::vector<std::string> parts;
    parts.reserve(tc.inputs.size());
    for (const auto& in : tc.inputs) parts.push_back(to_string(in, symbols));
    return join(parts, ", ");
}

std::vector<observation> expected_outputs(const system& spec,
                                          const test_case& tc) {
    return observe(spec, tc.inputs);
}

test_case parse_compact(const std::string& name, const std::string& text,
                        const symbol_table& symbols) {
    test_case tc;
    tc.name = name;
    for (const auto& raw : split(text, ',')) {
        const std::string token{trim(raw)};
        detail::require(!token.empty(), [&] {
            return "parse_compact: empty token in '" + text + "'";
        });
        if (token == "R" || token == "r") {
            tc.inputs.push_back(global_input::reset());
            continue;
        }
        // Trailing decimal digits form the 1-based port number.  Symbols
        // may themselves end in digits ("d0"), so prefer the longest prefix
        // that is a known symbol ("d0" + "2" beats "d" + "02").
        std::size_t first_digit = token.size();
        while (first_digit > 0 &&
               std::isdigit(
                   static_cast<unsigned char>(token[first_digit - 1])))
            --first_digit;
        detail::require(first_digit > 0 && first_digit < token.size(), [&] {
            return "parse_compact: token '" + token +
                   "' must be <symbol><port-digits> or R";
        });
        std::size_t split_at = token.size() - 1;
        while (split_at > first_digit &&
               !symbols.contains(token.substr(0, split_at)))
            --split_at;
        const std::string sym = token.substr(0, split_at);
        // Hand-rolled digits-to-int: std::stoi would throw std::out_of_range
        // on an overlong digit run, escaping the caller's model_error
        // handling as a raw exception (found by the io fuzzer).  Ports are
        // machine indices, so anything above the model limit is malformed.
        int port = 0;
        bool overflow = false;
        for (std::size_t d = split_at; d < token.size(); ++d) {
            port = port * 10 + (token[d] - '0');
            if (port > 1'000'000) {
                overflow = true;
                break;
            }
        }
        detail::require(port >= 1 && !overflow, [&] {
            return "parse_compact: port out of range in '" + token + "'";
        });
        tc.inputs.push_back(global_input::at(
            machine_id{static_cast<std::uint32_t>(port - 1)},
            symbols.lookup(sym)));
    }
    return tc;
}

}  // namespace cfsmdiag
