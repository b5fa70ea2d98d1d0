#include "tester/flaky_sut.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cfsmdiag {

flaky_sut::flaky_sut(sut_connection& inner, const system& spec,
                     const flakiness_profile& profile)
    : inner_(&inner),
      profile_(profile),
      ports_(inner.port_count()),
      rng_(profile.seed) {
    auto check = [](double rate, const char* name) {
        detail::require(rate >= 0.0 && rate <= 1.0, [&] {
            return std::string("flaky_sut: ") + name + " must be in [0, 1]";
        });
    };
    check(profile.drop_rate, "drop_rate");
    check(profile.garble_rate, "garble_rate");
    check(profile.hang_rate, "hang_rate");
    check(profile.reset_fail_rate, "reset_fail_rate");
    check(profile.reset_skip_rate, "reset_skip_rate");
    // Garbled observations draw from the external output alphabet — the
    // corrupted symbols a real lab could plausibly report.
    for (const fsm& m : spec.machines()) {
        for (const auto& t : m.transitions()) {
            if (t.kind != output_kind::external || t.output.is_epsilon())
                continue;
            if (std::find(garble_pool_.begin(), garble_pool_.end(),
                          t.output) == garble_pool_.end())
                garble_pool_.push_back(t.output);
        }
    }
}

void flaky_sut::reset() {
    if (rng_.chance(profile_.reset_fail_rate)) {
        ++counters_.reset_failures;
        throw transient_error("flaky_sut: reset failed");
    }
    if (rng_.chance(profile_.reset_skip_rate)) {
        // The nastiest lab fault: the reset is acknowledged but never
        // happens, so the SUT silently carries its state into the next run.
        ++counters_.reset_skips;
        return;
    }
    inner_->reset();
}

observation flaky_sut::apply(machine_id port, symbol input) {
    if (rng_.chance(profile_.hang_rate)) {
        // The input is never delivered: the inner SUT does not move.
        ++counters_.hangs;
        throw timeout_error("flaky_sut: SUT hung (observation deadline)");
    }
    observation obs = inner_->apply(port, input);
    if (!obs.is_null() && rng_.chance(profile_.drop_rate)) {
        ++counters_.drops;
        return observation::none();
    }
    if (!garble_pool_.empty() && rng_.chance(profile_.garble_rate)) {
        ++counters_.garbles;
        if (obs.is_null()) {
            // Spurious output where ε was expected.
            const machine_id at{static_cast<std::uint32_t>(
                rng_.index(std::max<std::size_t>(ports_, 1)))};
            return observation::at(at, rng_.pick(garble_pool_));
        }
        // Replace the output with a different plausible symbol.
        symbol garbled = rng_.pick(garble_pool_);
        if (garbled == obs.output && garble_pool_.size() > 1) {
            while (garbled == obs.output) garbled = rng_.pick(garble_pool_);
        }
        return observation::at(*obs.port, garbled);
    }
    return obs;
}

std::size_t flaky_sut::port_count() const noexcept { return ports_; }

}  // namespace cfsmdiag
