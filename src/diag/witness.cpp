#include "diag/witness.hpp"

#include <sstream>

#include "diag/spec_context.hpp"
#include "util/strings.hpp"

namespace cfsmdiag {

std::string fault_witness::describe(const system& spec) const {
    std::ostringstream out;
    out << "witness: " << to_string(tc, spec.symbols()) << "\n";
    std::vector<std::string> exp, got;
    for (const auto& o : expected)
        exp.push_back(to_string(o, spec.symbols()));
    for (const auto& o : faulty) got.push_back(to_string(o, spec.symbols()));
    out << "  specification: " << join(exp, ", ") << "\n";
    out << "  implementation: " << join(got, ", ") << "\n";
    out << "  first divergence at step " << (divergence + 1) << " ("
        << to_string(tc.inputs[divergence], spec.symbols()) << ")\n";
    return out.str();
}

std::optional<fault_witness> witness_test(const system& spec,
                                          const single_transition_fault&
                                              fault,
                                          std::size_t max_joint_states) {
    validate_fault(spec, fault);
    const spec_context ctx(spec, {});
    const auto seq = ctx.discrim().splitting_sequence(
        {{}, {fault.to_override()}}, max_joint_states);
    if (!seq) return std::nullopt;

    fault_witness w;
    w.tc = test_case::from_inputs("witness", *seq);
    w.expected = observe(spec, w.tc.inputs);
    w.faulty = observe(spec, w.tc.inputs, fault.to_override());
    w.divergence = 0;
    while (w.divergence < w.expected.size() &&
           w.expected[w.divergence] == w.faulty[w.divergence])
        ++w.divergence;
    return w;
}

}  // namespace cfsmdiag
