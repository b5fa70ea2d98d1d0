#include "diag/compiled.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <string>

#include "cfsm/alphabet.hpp"
#include "diag/hypotheses.hpp"
#include "fault/enumerate.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace cfsmdiag {
namespace {

/// Must match simulator.cpp's default: the flat stepper reproduces the
/// simulator's budget_exceeded behaviour (and message) exactly.
constexpr std::size_t default_hop_budget = 1024;

bool symptom_in(const std::vector<std::size_t>& symptom_steps,
                std::size_t from, std::size_t to) {
    const auto it =
        std::lower_bound(symptom_steps.begin(), symptom_steps.end(), from);
    return it != symptom_steps.end() && *it < to;
}

/// First firing step >= `from` of dense id `t` in case `ct`, or
/// invalid_index.
std::uint32_t next_fire(const compiled_spec::case_tables& ct,
                        std::uint32_t t, std::size_t from) {
    const auto begin = ct.fire_steps.begin() + ct.fire_off[t];
    const auto end = ct.fire_steps.begin() + ct.fire_off[t + 1];
    const auto it =
        std::lower_bound(begin, end, static_cast<std::uint32_t>(from));
    return it == end ? invalid_index : *it;
}

/// Whether the `w`-word states at `a` and `b` are equal (one compare when
/// `w` is the constant of a one-word kernel).
bool same_state(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t w) noexcept {
    for (std::size_t i = 0; i < w; ++i)
        if (a[i] != b[i]) return false;
    return true;
}

/// Splitmix64's finalizer.
std::uint64_t mix64(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// A fault-dictionary signature's contribution of observing `obs` where
/// the spec expects `expected`, at step `k` of case `ci` (Zobrist-style:
/// one pseudo-random key per (position, observation)).
std::uint64_t signature_term(std::size_t ci, std::size_t k,
                             std::uint64_t obs, std::uint64_t expected) {
    const std::uint64_t pos = mix64((static_cast<std::uint64_t>(ci) << 32) | k);
    return mix64(pos + obs) - mix64(pos + expected);
}

/// Steps spec ⊕ `ov` through the run `ct` where it can differ from the
/// spec's, calling on_step(k, observation) at each stepped step k.  Before
/// the target's first firing, and after each re-synchronization until its
/// next one, the mutated run equals the spec run (the prefix and
/// re-synchronization lemmas), so only the stretches in between are
/// stepped.  `state` holds W words of scratch.  Throws what flat_step
/// throws.
template <std::size_t W, typename OnStep>
void walk_divergence(const compiled_spec& cs, const system& spec,
                     const compiled_spec::case_tables& ct,
                     const flat_override& ov, std::uint64_t* state,
                     OnStep on_step) {
    const std::size_t w = cs.words_in<W>();
    const std::uint64_t* const before = ct.state_before.data();
    const std::size_t n = ct.in_port.size();
    std::uint32_t k = ct.first_fire[ov.target];
    while (k != invalid_index) {
        std::copy_n(before + k * w, w, state);
        do {
            on_step(k, flat_step<W>(cs, spec, state, ct.in_port[k],
                                    ct.in_sym[k], &ov, 1));
            ++k;
        } while (k < n && !same_state(state, before + k * w, w));
        k = k < n ? next_fire(ct, ov.target, k) : invalid_index;
    }
}

/// The whole-suite signature of spec ⊕ `ov`.
template <std::size_t W>
std::uint64_t suite_signature(const compiled_spec& cs, const system& spec,
                              const flat_override& ov) {
    std::uint64_t one_word[1];
    std::vector<std::uint64_t> wide(W == 1 ? 0 : cs.words_in<W>());
    std::uint64_t* const state = W == 1 ? one_word : wide.data();
    std::uint64_t sig = 0;
    for (std::size_t ci = 0; ci < cs.cases.size(); ++ci) {
        const compiled_spec::case_tables& ct = cs.cases[ci];
        walk_divergence<W>(cs, spec, ct, ov, state,
                           [&](std::uint32_t k, std::uint64_t obs) {
                               if (obs != ct.expected[k])
                                   sig += signature_term(ci, k, obs,
                                                         ct.expected[k]);
                           });
    }
    return sig;
}

template <std::size_t W>
fault_dictionary fill_fault_dictionary(const compiled_spec& cs,
                                       const system& spec) {
    fault_dictionary fd;
    fd.signature.assign(cs.slot_offset.back(), fault_dictionary::no_signature);
    fd.by_signature.reserve(cs.slot_offset.back());
    const auto fill = [&](std::uint32_t slot, const flat_override& ov) {
        fd.by_signature.push_back(slot);
        try {
            fd.signature[slot] = suite_signature<W>(cs, spec, ov);
        } catch (const error&) {
            // A chain that throws keeps no signature: Step 5B replays the
            // hypothesis, which throws (or refutes first) exactly as before.
        }
    };
    for (std::uint32_t d = 0; d < cs.total; ++d) {
        const std::uint32_t states = cs.state_count[cs.owner[d]];
        const std::uint32_t pool_begin = cs.pool_offset[d];
        const std::uint32_t pool = cs.pool_offset[d + 1] - pool_begin;
        for (std::uint32_t s = 0; s < states; ++s) {
            if (s == cs.next_state[d]) continue;
            fill(cs.transfer_slot(d, s), {d, invalid_index, s, invalid_index});
        }
        for (std::uint32_t j = 0; j < pool; ++j) {
            const std::uint32_t out = cs.pool_syms[pool_begin + j].id;
            if (out == cs.out_sym[d]) continue;
            fill(cs.output_slot(d, j), {d, out, invalid_index, invalid_index});
            for (std::uint32_t s = 0; s < states; ++s) {
                if (s == cs.next_state[d]) continue;
                fill(cs.output_slot(d, j, s), {d, out, s, invalid_index});
            }
        }
    }
    fd.sort_index();
    return fd;
}

}  // namespace

std::uint64_t pack_observation(const observation& o) noexcept {
    if (o.is_null()) return 0;
    const std::uint64_t port = o.port ? o.port->value + 1 : 0;
    return (port << 32) | o.output.id;
}

flat_override lower_override(const compiled_spec& cs,
                             const transition_override& ov) {
    detail::require(ov.target.machine.value < cs.machine_offset.size() - 1,
                    "flat_replayer: override machine out of range");
    flat_override f;
    f.target = cs.dense_id(ov.target);
    detail::require(f.target < cs.machine_offset[ov.target.machine.value + 1],
                    "flat_replayer: override transition out of range");
    if (ov.output) f.out = ov.output->id;
    if (ov.next_state) {
        detail::require(
            ov.next_state->value < cs.state_count[ov.target.machine.value],
            "flat_replayer: override next state out of range");
        f.next = ov.next_state->value;
    }
    if (ov.destination) {
        detail::require(ov.destination->value < cs.machine_offset.size() - 1 &&
                            *ov.destination != ov.target.machine,
                        "flat_replayer: override destination out of range");
        f.dest = ov.destination->value;
    }
    return f;
}

template <std::size_t W, typename OnFire>
std::uint64_t flat_step(const compiled_spec& cs, const system& spec,
                        std::uint64_t* state, std::uint32_t port,
                        std::uint32_t sym, const flat_override* ovs,
                        std::size_t ov_count, bool* fired, bool* target_hit,
                        OnFire on_fire) {
    ++detail::simulated_step_count;
    if (fired) *fired = false;
    if (target_hit) *target_hit = false;
    if (port == invalid_index) {  // reset
        std::copy_n(cs.initial_packed.data(), cs.words_in<W>(), state);
        return 0;
    }
    std::uint32_t current = port;
    std::uint32_t msg = sym;
    for (std::size_t hop = 0; hop <= default_hop_budget; ++hop) {
        std::uint64_t& word = state[cs.word_of<W>(current)];
        const std::uint32_t s = static_cast<std::uint32_t>(
            (word >> cs.state_shift[current]) & cs.state_mask[current]);
        std::uint32_t d = invalid_index;
        if (msg < cs.disp_stride[current] && s < cs.state_count[current])
            d = cs.dispatch[cs.disp_offset[current] +
                            s * cs.disp_stride[current] + msg];
        if (d == invalid_index) return 0;  // unspecified: ε, no change
        if (fired) *fired = true;
        on_fire(d);
        const flat_override* hit = nullptr;
        for (std::size_t j = 0; j < ov_count; ++j) {
            if (ovs[j].target == d) {
                hit = &ovs[j];
                break;
            }
        }
        if (hit && target_hit) *target_hit = true;
        const std::uint32_t next = hit && hit->next != invalid_index
                                       ? hit->next
                                       : cs.next_state[d];
        const std::uint32_t out =
            hit && hit->out != invalid_index ? hit->out : cs.out_sym[d];
        word = (word & ~(cs.state_mask[current] << cs.state_shift[current])) |
               (static_cast<std::uint64_t>(next) << cs.state_shift[current]);
        if (!cs.is_internal[d]) {
            if (out == 0) return 0;
            return (static_cast<std::uint64_t>(current + 1) << 32) | out;
        }
        detail::require(out != 0, [&] {
            return "simulator::apply: internal transition " +
                   spec.transition_label(cs.global_id(d)) +
                   " sends an ε message";
        });
        current = hit && hit->dest != invalid_index ? hit->dest : cs.dest[d];
        msg = out;
    }
    throw budget_exceeded(
        "simulator::apply: internal-message chain exceeded " +
        std::to_string(default_hop_budget) +
        " hops (message cycle?) in system '" + spec.name() + "'");
}

template std::uint64_t flat_step<1>(const compiled_spec&, const system&,
                                    std::uint64_t*, std::uint32_t,
                                    std::uint32_t, const flat_override*,
                                    std::size_t, bool*, bool*, no_fire_hook);
template std::uint64_t flat_step<runtime_words>(
    const compiled_spec&, const system&, std::uint64_t*, std::uint32_t,
    std::uint32_t, const flat_override*, std::size_t, bool*, bool*,
    no_fire_hook);

compiled_spec compile_spec(const system& spec, const test_suite& suite,
                           const suite_traces& traces) {
    detail::require(traces.size() == suite.cases.size(),
                    "compile_spec: traces do not match suite");
    compiled_spec cs;
    const std::size_t machines = spec.machine_count();

    // Dense universe + effect tables.
    cs.machine_offset.reserve(machines + 1);
    for (const fsm& m : spec.machines()) {
        cs.machine_offset.push_back(cs.total);
        cs.total += static_cast<std::uint32_t>(m.transitions().size());
    }
    cs.machine_offset.push_back(cs.total);
    cs.owner.reserve(cs.total);
    cs.out_sym.reserve(cs.total);
    cs.next_state.reserve(cs.total);
    cs.is_internal.reserve(cs.total);
    cs.dest.reserve(cs.total);
    cs.internal_mask = dyn_bitset(cs.total);
    for (std::uint32_t mi = 0; mi < machines; ++mi) {
        for (const transition& t :
             spec.machine(machine_id{mi}).transitions()) {
            const std::uint32_t d =
                static_cast<std::uint32_t>(cs.owner.size());
            cs.owner.push_back(mi);
            cs.out_sym.push_back(t.output.id);
            cs.next_state.push_back(t.to.value);
            const bool internal = t.kind == output_kind::internal;
            cs.is_internal.push_back(internal ? 1 : 0);
            cs.dest.push_back(internal ? t.destination.value
                                       : invalid_index);
            if (internal) cs.internal_mask.set(d);
        }
    }

    // Admissible faulty-output pools (Step 5B's per-candidate
    // admissible_faulty_outputs, hoisted out of the per-fault path).
    const auto alphabets = compute_alphabets(spec);
    cs.pool_offset.reserve(cs.total + 1);
    for (std::uint32_t d = 0; d < cs.total; ++d) {
        cs.pool_offset.push_back(
            static_cast<std::uint32_t>(cs.pool_syms.size()));
        const auto pool =
            admissible_faulty_outputs(spec, alphabets, cs.global_id(d));
        cs.pool_syms.insert(cs.pool_syms.end(), pool.begin(), pool.end());
    }
    cs.pool_offset.push_back(static_cast<std::uint32_t>(cs.pool_syms.size()));

    // Dispatch tables + state packing: fields in machine order, each in
    // the first word with room for it.
    cs.disp_offset.reserve(machines);
    cs.disp_stride.reserve(machines);
    cs.state_word.reserve(machines);
    cs.state_shift.reserve(machines);
    cs.state_mask.reserve(machines);
    cs.state_count.reserve(machines);
    std::uint32_t word = 0;
    std::uint32_t bit = 0;
    for (std::uint32_t mi = 0; mi < machines; ++mi) {
        const fsm& m = spec.machine(machine_id{mi});
        const std::size_t states = m.state_count();
        std::uint32_t stride = 0;
        for (const transition& t : m.transitions())
            stride = std::max(stride, t.input.id + 1);
        cs.disp_offset.push_back(static_cast<std::uint32_t>(cs.dispatch.size()));
        cs.disp_stride.push_back(stride);
        for (std::uint32_t s = 0; s < states; ++s) {
            for (std::uint32_t i = 0; i < stride; ++i) {
                const auto found = m.find(state_id{s}, symbol{i});
                cs.dispatch.push_back(
                    found ? cs.machine_offset[mi] + found->value
                          : invalid_index);
            }
        }
        const std::uint32_t width = states <= 1
                                        ? 1
                                        : std::bit_width(states - 1);
        if (bit + width > 64) {
            ++word;
            bit = 0;
        }
        cs.state_word.push_back(word);
        cs.state_shift.push_back(bit);
        cs.state_mask.push_back((std::uint64_t{1} << width) - 1);
        cs.state_count.push_back(static_cast<std::uint32_t>(states));
        bit += width;
    }
    cs.words = word + 1;
    const std::size_t w = cs.words;

    cs.slot_offset.reserve(cs.total + 1);
    std::uint32_t slots = 0;
    for (std::uint32_t d = 0; d < cs.total; ++d) {
        cs.slot_offset.push_back(slots);
        const std::uint32_t states = cs.state_count[cs.owner[d]];
        const std::uint32_t pool = cs.pool_offset[d + 1] - cs.pool_offset[d];
        slots += states + pool + states * pool;
    }
    cs.slot_offset.push_back(slots);

    system_state initial;
    initial.states.reserve(machines);
    for (const fsm& m : spec.machines())
        initial.states.push_back(m.initial_state());
    cs.initial_packed.resize(w);
    cs.pack(initial, cs.initial_packed.data());

    // Per-case spec-run tables from the Step-1 traces (no simulation).
    cs.cases.reserve(suite.cases.size());
    for (std::size_t ci = 0; ci < suite.cases.size(); ++ci) {
        const auto& inputs = suite.cases[ci].inputs;
        const auto& trace = traces[ci];
        detail::require(trace.size() == inputs.size(),
                        "compile_spec: trace does not match case inputs");
        compiled_spec::case_tables ct;
        const std::size_t n = inputs.size();
        ct.in_port.reserve(n);
        ct.in_sym.reserve(n);
        ct.state_before.resize(n * w);
        ct.expected.reserve(n);
        ct.step_off.reserve(n + 1);
        for (std::size_t k = 0; k < n; ++k) {
            const global_input& in = inputs[k];
            const bool reset = in.action == global_input::kind::reset;
            ct.in_port.push_back(reset ? invalid_index : in.port.value);
            ct.in_sym.push_back(reset ? 0 : in.input.id);
            cs.pack(trace[k].before, ct.state_before.data() + k * w);
            ct.expected.push_back(pack_observation(trace[k].expected));
            ct.step_off.push_back(
                static_cast<std::uint32_t>(ct.step_fired.size()));
            for (global_transition_id gid : trace[k].fired)
                ct.step_fired.push_back(cs.dense_id(gid));
        }
        ct.step_off.push_back(
            static_cast<std::uint32_t>(ct.step_fired.size()));
        index_case(ct, cs.total, w);
        cs.cases.push_back(std::move(ct));
    }
    return cs;
}

compiled_conflicts compile_conflicts(const compiled_spec& cs,
                                     const symptom_report& report,
                                     bit_arena& arena) {
    compiled_conflicts cc;
    cc.per_case.reserve(report.symptomatic_cases.size());
    cc.itc = dyn_bitset(cs.total, arena);
    cc.itc.set_all();
    for (std::size_t ci : report.symptomatic_cases) {
        const compiled_spec::case_tables& ct = cs.cases[ci];
        const std::size_t last = *report.runs[ci].first_symptom;
        dyn_bitset fired(cs.total, arena);
        for (std::uint32_t i = ct.step_off[0]; i < ct.step_off[last + 1];
             ++i)
            fired.set(ct.step_fired[i]);
        cc.itc &= fired;
        cc.per_case.push_back(std::move(fired));
    }
    return cc;
}

conflict_sets materialize_conflict_sets(const compiled_spec& cs,
                                        const compiled_conflicts& cc) {
    conflict_sets out;
    const std::size_t machines = cs.machine_offset.size() - 1;
    out.per_machine.resize(machines);
    for (const dyn_bitset& fired : cc.per_case) {
        std::vector<std::set<transition_id>> sets(machines);
        fired.for_each_set([&](std::size_t d) {
            const std::uint32_t m = cs.owner[d];
            sets[m].insert(sets[m].end(),
                           transition_id{static_cast<std::uint32_t>(d) -
                                         cs.machine_offset[m]});
        });
        for (std::size_t m = 0; m < machines; ++m)
            out.per_machine[m].push_back(std::move(sets[m]));
    }
    return out;
}

candidate_sets materialize_candidate_sets(const compiled_spec& cs,
                                          const symptom_report& report,
                                          const compiled_conflicts& cc) {
    candidate_sets out;
    const std::size_t machines = cs.machine_offset.size() - 1;
    out.itc.resize(machines);
    out.ftc_tr.resize(machines);
    out.ftc_co.resize(machines);
    // No symptomatic case → the all-ones seed never intersected anything;
    // the reference path leaves every ITC empty in that situation.
    if (!cc.per_case.empty()) {
        cc.itc.for_each_set([&](std::size_t d) {
            const std::uint32_t m = cs.owner[d];
            out.itc[m].push_back(transition_id{
                static_cast<std::uint32_t>(d) - cs.machine_offset[m]});
        });
    }
    if (report.ust && cc.itc.test(cs.dense_id(*report.ust)) &&
        !cc.per_case.empty()) {
        out.ust = report.ust;
    }
    for (std::uint32_t m = 0; m < machines; ++m) {
        for (transition_id t : out.itc[m]) {
            const std::uint32_t d = cs.machine_offset[m] + t.value;
            const bool is_ust = out.ust && out.ust->machine.value == m &&
                                out.ust->transition == t;
            if (!is_ust) out.ftc_tr[m].push_back(t);
            if (cs.is_internal[d]) out.ftc_co[m].push_back(t);
        }
    }
    return out;
}

fault_dictionary build_fault_dictionary(const compiled_spec& cs,
                                        const system& spec) {
    return cs.words == 1 ? fill_fault_dictionary<1>(cs, spec)
                         : fill_fault_dictionary<runtime_words>(cs, spec);
}

flat_replayer::flat_replayer(const compiled_spec& cs, const system& spec,
                             const symptom_report& report,
                             const fault_dictionary* dictionary)
    : cs_(&cs), spec_(&spec), tables_(cs.cases.data()), state_(cs.words) {
    detail::require(report.runs.size() == cs.cases.size(),
                    "flat_replayer: report does not match compiled suite");
    cases_.reserve(report.runs.size());
    std::size_t max_len = 0;
    for (std::size_t ci = 0; ci < report.runs.size(); ++ci) {
        const executed_case& run = report.runs[ci];
        case_obs co;
        co.quarantined = run.quarantined;
        co.symptom_steps = &run.symptom_steps;
        if (run.first_symptom)
            co.first_symptom = static_cast<std::uint32_t>(*run.first_symptom);
        co.observed.reserve(run.observed.size());
        for (const observation& o : run.observed)
            co.observed.push_back(pack_observation(o));
        max_len = std::max(max_len, run.observed.size());
        cases_.push_back(std::move(co));
    }
    size_scratch(max_len);

    // The fill covered every case, so a signature compares with the report
    // only when every case is trusted.  A consistent hypothesis predicts
    // the observation everywhere, so its nonzero terms sit exactly on the
    // report's symptom positions.
    if (!dictionary ||
        std::any_of(cases_.begin(), cases_.end(),
                    [](const case_obs& co) { return co.quarantined; }))
        return;
    detail::require(dictionary->signature.size() == cs.slot_offset.back(),
                    "flat_replayer: fault dictionary does not match the "
                    "compiled suite");
    std::uint64_t observed = 0;
    for (std::size_t ci = 0; ci < cases_.size(); ++ci) {
        for (const std::size_t k : *cases_[ci].symptom_steps)
            observed += signature_term(ci, k, cases_[ci].observed[k],
                                       cs.cases[ci].expected[k]);
    }
    flagged_ = dictionary->flagged(observed);
    every_hypothesis_flagged_ = false;
}

flat_replayer::flat_replayer(const flat_sequence& seq,
                             std::vector<std::uint64_t> observed)
    : cs_(seq.cs_),
      spec_(seq.spec_),
      tables_(&seq.tables_),
      state_(seq.cs_->words) {
    const std::vector<std::uint64_t>& expected = seq.tables_.expected;
    detail::require(observed.size() == expected.size(),
                    "flat_replayer: answer does not match the sequence");
    for (std::size_t k = 0; k < expected.size(); ++k) {
        if (observed[k] != expected[k]) sequence_symptoms_.push_back(k);
    }
    case_obs co;
    co.observed = std::move(observed);
    co.symptom_steps = &sequence_symptoms_;
    if (!sequence_symptoms_.empty())
        co.first_symptom =
            static_cast<std::uint32_t>(sequence_symptoms_.front());
    cases_.push_back(std::move(co));
    size_scratch(expected.size());
}

void flat_replayer::size_scratch(std::size_t max_len) {
    memo_epoch_.assign(max_len, 0);
    memo_obs_.resize(max_len);
    memo_after_.resize(max_len * cs_->words);
}

template <std::size_t W, std::size_t N>
bool flat_replayer::suffix_consistent(std::size_t ci, std::uint32_t f,
                                      const flat_override* ovs,
                                      std::size_t count) {
    const compiled_spec::case_tables& ct = tables_[ci];
    const case_obs& co = cases_[ci];
    const std::size_t n = ct.in_port.size();
    const std::size_t w = cs_->words_in<W>();
    const std::size_t k = N == 0 ? count : N;
    const std::uint64_t* const before = ct.state_before.data();

    detail::note_replay_suffix();
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
        std::fill(memo_epoch_.begin(), memo_epoch_.end(), 0);
        epoch_ = 0;
    }
    ++epoch_;

    std::uint64_t one_word[1];
    std::uint64_t* const state = W == 1 ? one_word : state_.data();
    std::size_t step_i = f;
    bool synced = true;  // mutated state == spec state entering `step_i`
    while (true) {
        if (synced) {
            const std::uint32_t r = ct.rep[step_i];
            std::uint64_t* const after = memo_after_.data() + r * w;
            if (memo_epoch_[r] != epoch_) {
                std::copy_n(before + step_i * w, w, after);
                memo_obs_[r] = flat_step<W>(*cs_, *spec_, after,
                                            ct.in_port[step_i],
                                            ct.in_sym[step_i], ovs, k);
                memo_epoch_[r] = epoch_;
            }
            if (memo_obs_[r] != co.observed[step_i]) return false;
            ++step_i;
            if (step_i == n) return true;
            if (!same_state(after, before + step_i * w, w)) {
                std::copy_n(after, w, state);
                synced = false;
                continue;
            }
        } else {
            if (flat_step<W>(*cs_, *spec_, state, ct.in_port[step_i],
                             ct.in_sym[step_i], ovs, k) !=
                co.observed[step_i])
                return false;
            ++step_i;
            if (step_i == n) return true;
            if (!same_state(state, before + step_i * w, w)) continue;
            synced = true;
        }
        // Re-synchronized: mutated == spec until a target next fires, so
        // the segment is consistent iff it shows no symptom.
        std::uint32_t nf = next_fire(ct, ovs[0].target, step_i);
        for (std::size_t j = 1; j < k; ++j)
            nf = std::min(nf, next_fire(ct, ovs[j].target, step_i));
        if (nf == invalid_index)
            return !symptom_in(*co.symptom_steps, step_i, n);
        if (symptom_in(*co.symptom_steps, step_i, nf)) return false;
        step_i = nf;
    }
}

template <std::size_t W, std::size_t N>
bool flat_replayer::replay(const flat_override* ovs, std::size_t count) {
    const std::size_t k = N == 0 ? count : N;
    for (std::size_t ci = 0; ci < cases_.size(); ++ci) {
        // Quarantined runs carry no trustworthy observations: they neither
        // support nor refute.
        if (cases_[ci].quarantined) continue;
        const compiled_spec::case_tables& ct = tables_[ci];
        // The prefix lemma holds until the earliest target fires.
        std::uint32_t ff = ct.first_fire[ovs[0].target];
        for (std::size_t j = 1; j < k; ++j)
            ff = std::min(ff, ct.first_fire[ovs[j].target]);
        if (ff == invalid_index) {
            // Mutated == spec on all of this case.
            if (cases_[ci].first_symptom != invalid_index) return false;
            detail::note_replay_case_skip();
            continue;
        }
        if (cases_[ci].first_symptom < ff) return false;
        if (!suffix_consistent<W, N>(ci, ff, ovs, count)) return false;
    }
    return true;
}

bool flat_replayer::replay(const transition_override& ov) {
    const flat_override f = lower_override(*cs_, ov);
    return cs_->words == 1 ? replay<1, 1>(&f, 1)
                           : replay<runtime_words, 1>(&f, 1);
}

bool flat_replayer::consistent(const std::vector<transition_override>& ovs) {
    detail::require(!ovs.empty(),
                    "flat_replayer::consistent: empty override set");
    std::vector<flat_override> flat;
    flat.reserve(ovs.size());
    for (const transition_override& ov : ovs) {
        flat.push_back(lower_override(*cs_, ov));
        for (std::size_t j = 0; j + 1 < flat.size(); ++j)
            detail::require(flat[j].target != flat.back().target,
                            "flat_replayer: overrides must target distinct "
                            "transitions");
    }
    return cs_->words == 1
               ? replay<1, 0>(flat.data(), flat.size())
               : replay<runtime_words, 0>(flat.data(), flat.size());
}

flat_sequence::flat_sequence(const compiled_spec& cs, const system& spec,
                             const std::vector<global_input>& inputs)
    : cs_(&cs), spec_(&spec) {
    const std::size_t n = inputs.size();
    const std::size_t w = cs.words;
    compiled_spec::case_tables& ct = tables_;
    ct.in_port.reserve(n);
    ct.in_sym.reserve(n);
    ct.state_before.resize(n * w);
    ct.expected.reserve(n);
    ct.step_off.reserve(n + 1);
    std::vector<std::uint64_t> state = cs.initial_packed;
    const fire_list hook{&cs, &spec, &ct.step_fired};
    for (std::size_t k = 0; k < n; ++k) {
        const global_input& in = inputs[k];
        const bool reset = in.action == global_input::kind::reset;
        if (!reset) {
            // Checked as simulator::apply checks its input.
            detail::require(in.port.value < spec.machine_count(),
                            "simulator::apply: port out of range");
            detail::require(!in.input.is_epsilon(),
                            "simulator::apply: cannot apply ε as an input");
        }
        ct.in_port.push_back(reset ? invalid_index : in.port.value);
        ct.in_sym.push_back(reset ? 0 : in.input.id);
        std::copy_n(state.data(), w, ct.state_before.data() + k * w);
        ct.step_off.push_back(static_cast<std::uint32_t>(ct.step_fired.size()));
        ct.expected.push_back(
            w == 1 ? flat_step<1>(cs, spec, state.data(), ct.in_port[k],
                                  ct.in_sym[k], nullptr, 0, nullptr, nullptr,
                                  hook)
                   : flat_step<runtime_words>(cs, spec, state.data(),
                                              ct.in_port[k], ct.in_sym[k],
                                              nullptr, 0, nullptr, nullptr,
                                              hook));
    }
    ct.step_off.push_back(static_cast<std::uint32_t>(ct.step_fired.size()));
    index_case(ct, cs.total, w);
}

std::vector<observation> flat_sequence::expected() const {
    std::vector<observation> out;
    out.reserve(tables_.expected.size());
    for (const std::uint64_t o : tables_.expected)
        out.push_back(unpack_observation(o));
    return out;
}

std::vector<std::uint64_t> flat_sequence::predict(
    const transition_override& ov) const {
    const flat_override f = lower_override(*cs_, ov);
    std::vector<std::uint64_t> out = tables_.expected;
    std::vector<std::uint64_t> state(cs_->words);
    const auto put = [&out](std::uint32_t k, std::uint64_t obs) {
        out[k] = obs;
    };
    if (cs_->words == 1) {
        walk_divergence<1>(*cs_, *spec_, tables_, f, state.data(), put);
    } else {
        walk_divergence<runtime_words>(*cs_, *spec_, tables_, f,
                                       state.data(), put);
    }
    return out;
}

// The hooked steppers of packed_bfs and of the column probe.  Their callers
// live in files of their own (packed_bfs.cpp, column_probe.cpp): code
// added to this translation unit changes how GCC compiles the replayer's
// hot loops, and with packed_bfs here perfbench's one_shot read a slower
// fault_p50.

void fire_list::operator()(std::uint32_t d) const {
    out->push_back(d);
    if (!cs->is_internal[d]) return;
    const std::uint32_t to = cs->dest[d];
    detail::require(to < cs->machine_offset.size() - 1 && to != cs->owner[d],
                    [&] {
                        return "simulator::apply: invalid internal "
                               "destination in " +
                               spec->transition_label(cs->global_id(d));
                    });
}

template std::uint64_t flat_step<1, fire_list>(
    const compiled_spec&, const system&, std::uint64_t*, std::uint32_t,
    std::uint32_t, const flat_override*, std::size_t, bool*, bool*,
    fire_list);
template std::uint64_t flat_step<runtime_words, fire_list>(
    const compiled_spec&, const system&, std::uint64_t*, std::uint32_t,
    std::uint32_t, const flat_override*, std::size_t, bool*, bool*,
    fire_list);

void owner_message_watch::operator()(std::uint32_t d) const noexcept {
    if (d == ov->target) *target_fired = true;
    if (!*target_fired || !cs->is_internal[d]) return;
    const std::uint32_t to =
        d == ov->target && ov->dest != invalid_index ? ov->dest : cs->dest[d];
    if (to == cs->owner[ov->target]) *owner_messaged = true;
}

template std::uint64_t flat_step<1, owner_message_watch>(
    const compiled_spec&, const system&, std::uint64_t*, std::uint32_t,
    std::uint32_t, const flat_override*, std::size_t, bool*, bool*,
    owner_message_watch);
template std::uint64_t flat_step<runtime_words, owner_message_watch>(
    const compiled_spec&, const system&, std::uint64_t*, std::uint32_t,
    std::uint32_t, const flat_override*, std::size_t, bool*, bool*,
    owner_message_watch);

}  // namespace cfsmdiag
