#include "diag/spec_context.hpp"

#include "util/error.hpp"

namespace cfsmdiag {

spec_context::spec_context(const system& spec, test_suite suite,
                           const suite_traces* precomputed)
    : spec_(&spec), suite_(std::move(suite)) {
    suite_traces traces;
    if (precomputed) {
        detail::require(precomputed->size() == suite_.cases.size(),
                        "spec_context: precomputed traces do not match suite");
        traces = *precomputed;
    } else {
        traces.reserve(suite_.cases.size());
        for (const test_case& tc : suite_.cases)
            traces.push_back(explain(*spec_, tc.inputs));
    }
    for (const auto& trace : traces) trace_steps_ += trace.size();
    traces_ = std::make_shared<const suite_traces>(std::move(traces));
    compiled_ = compile_spec(*spec_, suite_, *traces_);
    discrim_ = std::make_unique<discrim_engine>(compiled_, *spec_);
}

const fault_dictionary* spec_context::dictionary() const {
    const std::lock_guard<std::mutex> lock(dictionary_mutex_);
    return dictionary_.get();
}

void spec_context::build_dictionary() const {
    const std::lock_guard<std::mutex> lock(dictionary_mutex_);
    if (dictionary_) return;
    dictionary_ = std::make_unique<const fault_dictionary>(
        build_fault_dictionary(compiled_, *spec_));
}

replay_cache spec_context::make_replay_cache(
    const symptom_report& report) const {
    return replay_cache(*spec_, suite_, report);
}

}  // namespace cfsmdiag
