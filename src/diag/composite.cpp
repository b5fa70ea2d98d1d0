#include "diag/composite.hpp"

#include <map>

namespace cfsmdiag {
namespace {

/// Translates between the CFSM world and the product machine's port-tagged
/// alphabet, forwarding to the real (CFSM-level) oracle.  Observation
/// mapping is a dense (symbol id, port) -> product-symbol table built once
/// at construction — the oracle path never touches symbol spellings.
class product_oracle final : public oracle {
  public:
    product_oracle(oracle& inner, const composition& comp,
                   std::vector<symbol> tag_of, std::size_t ports)
        : inner_(inner),
          comp_(&comp),
          tag_of_(std::move(tag_of)),
          ports_(ports) {}

    std::vector<observation> execute(
        const std::vector<global_input>& test) override {
        std::vector<global_input> mapped;
        mapped.reserve(test.size());
        for (const auto& in : test) {
            if (in.action == global_input::kind::reset) {
                mapped.push_back(global_input::reset());
            } else {
                mapped.push_back(comp_->input_of_symbol[in.input.id]);
            }
        }
        const auto raw = inner_.execute(mapped);
        std::vector<observation> out;
        out.reserve(raw.size());
        for (const auto& obs : raw) {
            if (obs.is_null()) {
                out.push_back(observation::none());
                continue;
            }
            const std::size_t slot =
                obs.output.id * ports_ + obs.port->value;
            detail::require(slot < tag_of_.size(),
                            "diagnose_via_composition: IUT output outside "
                            "the specification alphabet");
            out.push_back(observation::at(machine_id{0}, tag_of_[slot]));
        }
        return out;
    }

    [[nodiscard]] std::size_t executions() const noexcept override {
        return inner_.executions();
    }
    [[nodiscard]] std::size_t inputs_applied() const noexcept override {
        return inner_.inputs_applied();
    }

  private:
    oracle& inner_;
    const composition* comp_;
    /// Row-major [symbol id][port] -> tagged product symbol.
    std::vector<symbol> tag_of_;
    std::size_t ports_;
};

}  // namespace

composite_diagnosis_result diagnose_via_composition(
    const system& spec, const test_suite& suite, oracle& iut,
    const diagnoser_options& options, std::size_t max_product_states) {
    composite_diagnosis_result result;

    composition comp = compose(spec, max_product_states);
    result.product_states = comp.machine.state_count();
    result.product_transitions = comp.machine.transitions().size();

    // Pre-intern every (symbol, port) tag so faulty outputs the spec never
    // produces still have stable ids in the product alphabet, recording the
    // dense (symbol, port) -> tag map the oracle adapter indexes by id.
    symbol_table table = comp.symbols;
    const std::size_t ports = spec.machine_count();
    std::vector<symbol> tag_of(spec.symbols().size() * ports);
    for (std::uint32_t sid = 1; sid < spec.symbols().size(); ++sid) {
        for (std::uint32_t p = 0; p < ports; ++p) {
            tag_of[sid * ports + p] =
                table.intern(spec.symbols().name(symbol{sid}) + "@P" +
                             std::to_string(p + 1));
        }
    }

    const system wrapped = wrap_single_fsm(comp.machine, table);

    // Translate the suite into the product alphabet.
    std::map<global_input, symbol> to_product;
    for (std::uint32_t sid = 1; sid < comp.input_of_symbol.size(); ++sid) {
        to_product.emplace(comp.input_of_symbol[sid], symbol{sid});
    }
    test_suite product_suite;
    for (const auto& tc : suite.cases) {
        test_case mapped;
        mapped.name = tc.name;
        for (const auto& in : tc.inputs) {
            if (in.action == global_input::kind::reset) {
                mapped.inputs.push_back(global_input::reset());
                continue;
            }
            const auto it = to_product.find(in);
            detail::require(it != to_product.end(),
                            "diagnose_via_composition: suite input not in "
                            "the product alphabet");
            mapped.inputs.push_back(
                global_input::at(machine_id{0}, it->second));
        }
        product_suite.add(std::move(mapped));
    }

    product_oracle adapter(iut, comp, std::move(tag_of), ports);
    result.product_result =
        diagnose(wrapped, product_suite, adapter, options);

    for (const auto& d : result.product_result.final_diagnoses) {
        std::string line = describe(wrapped, d);
        const auto& fired =
            comp.fired_of_transition[d.target.transition.value];
        line += "  [fires";
        for (const auto& g : fired) {
            line += ' ';
            line += spec.transition_label(g);
        }
        line += "]";
        result.mapped_diagnoses.push_back(std::move(line));
    }
    return result;
}

}  // namespace cfsmdiag
