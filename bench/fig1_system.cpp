// Regenerates the paper's Figure 1: the three-CFSM system.
//
// The original figure is a state-transition diagram; its alphabet inventory
// is spelled out in Section 2.1.  This binary prints (a) that inventory
// exactly in the paper's notation, computed from our reconstruction, (b)
// per-machine transition tables, and (c) Graphviz DOT for each machine
// (plain edges = external-output transitions, bold = internal-output, as in
// the figure's drawing convention).
#include <iostream>

#include "cfsmdiag.hpp"

namespace {

std::string set_str(const cfsmdiag::symbol_table& sym,
                    const std::vector<cfsmdiag::symbol>& v) {
    std::vector<std::string> names;
    for (auto s : v) names.push_back(sym.name(s));
    std::sort(names.begin(), names.end());
    std::string out = "{";
    out += cfsmdiag::join(names, ", ");
    out += '}';
    return out;
}

}  // namespace

int main() {
    using namespace cfsmdiag;
    const auto ex = paperex::make_paper_example();
    const symbol_table& sym = ex.spec.symbols();
    const auto a = compute_alphabets(ex.spec);

    std::cout << "=== Figure 1 / Section 2.1: alphabet inventory ===\n";
    for (std::uint32_t i = 0; i < 3; ++i) {
        const std::string mi = std::to_string(i + 1);
        std::cout << "IEO" << mi << " = " << set_str(sym, a[i].ieo) << "; ";
        for (std::uint32_t j = 0; j < 3; ++j) {
            if (j == i) continue;
            std::cout << "IEOq" << mi << "<" << (j + 1) << " = "
                      << set_str(sym, a[i].ieoq_from[j]) << "; ";
        }
        std::cout << "\n";
        for (std::uint32_t j = 0; j < 3; ++j) {
            if (j == i) continue;
            std::cout << "IIO" << mi << ">" << (j + 1) << " = "
                      << set_str(sym, a[i].iio_to[j]) << "; ";
        }
        std::cout << "==> IIO" << mi << " = " << set_str(sym, a[i].iio)
                  << "\n";
        std::cout << "OEO" << mi << " = " << set_str(sym, a[i].oeo) << "; ";
        for (std::uint32_t j = 0; j < 3; ++j) {
            if (j == i) continue;
            std::cout << "OIO" << mi << ">" << (j + 1) << " = "
                      << set_str(sym, a[i].oio_to[j]) << "; ";
        }
        std::cout << "\n\n";
    }

    std::cout << "=== transition tables ===\n";
    for (const fsm& m : ex.spec.machines()) {
        text_table t({"name", "from", "input", "output", "to", "kind"});
        for (const auto& tr : m.transitions()) {
            t.add_row({tr.name, m.state_name(tr.from), sym.name(tr.input),
                       sym.name(tr.output), m.state_name(tr.to),
                       tr.kind == output_kind::external
                           ? "external"
                           : "internal => M" +
                                 std::to_string(tr.destination.value + 1)});
        }
        std::cout << m.name() << ":\n" << t << "\n";
    }

    std::cout << "=== Graphviz (render with: dot -Tpdf) ===\n";
    for (const fsm& m : ex.spec.machines())
        std::cout << to_dot(m, sym) << "\n";

    std::cout << "structural validation: "
              << (check_structure(ex.spec).empty() ? "OK" : "VIOLATED")
              << "\n";
    return 0;
}
