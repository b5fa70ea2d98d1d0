// google-benchmark microbenchmarks: where the algorithm's time goes and how
// it scales with the CFSM representation (not the product space).
#include <benchmark/benchmark.h>

#include "cfsmdiag.hpp"

namespace {

using namespace cfsmdiag;

cfsmdiag::system make_system(std::size_t machines, std::size_t states,
                             std::uint64_t seed) {
    rng random(seed);
    random_system_options gen;
    gen.machines = machines;
    gen.states_per_machine = states;
    gen.extra_transitions = 2 * states;
    return random_system(gen, random);
}

/// First tour-detected transfer fault (deterministic).
single_transition_fault pick_fault(const cfsmdiag::system& spec,
                                   const test_suite& suite) {
    for (const auto& f : enumerate_transfer_faults(spec)) {
        if (detects(spec, suite, f)) return f;
    }
    for (const auto& f : enumerate_output_faults(spec)) {
        if (detects(spec, suite, f)) return f;
    }
    throw error("scaling bench: no detectable fault");
}

void bm_simulator_step(benchmark::State& state) {
    const auto spec =
        make_system(static_cast<std::size_t>(state.range(0)), 6, 5);
    simulator sim(spec);
    std::vector<global_input> inputs;
    for (std::uint32_t mi = 0; mi < spec.machine_count(); ++mi) {
        for (symbol s : spec.machine(machine_id{mi}).input_alphabet())
            inputs.push_back(global_input::at(machine_id{mi}, s));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.apply(inputs[i++ % inputs.size()]));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_simulator_step)->Arg(2)->Arg(4)->Arg(8);

void bm_hypothesis_replay(benchmark::State& state) {
    const auto spec =
        make_system(3, static_cast<std::size_t>(state.range(0)), 7);
    const test_suite suite = transition_tour(spec).suite;
    const auto fault = pick_fault(spec, suite);
    simulated_iut iut(spec, fault);
    const auto report = collect_symptoms(spec, suite, iut);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hypothesis_consistent(spec, suite, report,
                                  fault.to_override()));
    }
}
BENCHMARK(bm_hypothesis_replay)->Arg(3)->Arg(5)->Arg(8);

/// The same consistency check through the replay cache (prefix skipping +
/// snapshot suffix).  Compare against bm_hypothesis_replay at equal Arg:
/// the gap is the per-check saving; the cache build cost is outside the
/// timed loop, as in a diagnose() run where it is amortized over hundreds
/// of checks.
void bm_replay_cache(benchmark::State& state) {
    const auto spec =
        make_system(3, static_cast<std::size_t>(state.range(0)), 7);
    const test_suite suite = transition_tour(spec).suite;
    const auto fault = pick_fault(spec, suite);
    simulated_iut iut(spec, fault);
    const auto report = collect_symptoms(spec, suite, iut);
    const spec_context ctx(spec, suite);
    const replay_cache cache = ctx.make_replay_cache(report);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hypothesis_consistent(spec, suite, report, fault.to_override(),
                                  &cache));
    }
    state.counters["case_skips_total"] =
        static_cast<double>(replay_cache_case_skips());
}
BENCHMARK(bm_replay_cache)->Arg(3)->Arg(5)->Arg(8);

/// The same consistency check through the compiled flat core: dense tables,
/// packed states, epoch-tagged scratch.  Compare against
/// bm_hypothesis_replay and bm_replay_cache at equal Arg — the gap over the
/// cache is pure interpretation overhead the lowering removes.  Table build
/// cost sits outside the timed loop, as in a campaign where one
/// spec_context amortizes over every fault.
void bm_flat_core(benchmark::State& state) {
    const auto spec =
        make_system(3, static_cast<std::size_t>(state.range(0)), 7);
    const test_suite suite = transition_tour(spec).suite;
    const auto fault = pick_fault(spec, suite);
    simulated_iut iut(spec, fault);
    const spec_context ctx(spec, suite);
    const auto report = collect_symptoms(spec, suite, iut, ctx.traces());
    flat_replayer replayer(ctx.compiled(), spec, report);
    const transition_override ov = fault.to_override();
    for (auto _ : state) {
        benchmark::DoNotOptimize(replayer.consistent(ov));
    }
}
BENCHMARK(bm_flat_core)->Arg(3)->Arg(5)->Arg(8);

void bm_diagnose_states(benchmark::State& state) {
    const auto spec =
        make_system(3, static_cast<std::size_t>(state.range(0)), 9);
    const test_suite suite = transition_tour(spec).suite;
    const auto fault = pick_fault(spec, suite);
    for (auto _ : state) {
        simulated_iut iut(spec, fault);
        benchmark::DoNotOptimize(diagnose(spec, suite, iut));
    }
}
BENCHMARK(bm_diagnose_states)->Arg(3)->Arg(5)->Arg(8)->Unit(
    benchmark::kMicrosecond);

void bm_diagnose_machines(benchmark::State& state) {
    const auto spec =
        make_system(static_cast<std::size_t>(state.range(0)), 4, 13);
    const test_suite suite = transition_tour(spec).suite;
    const auto fault = pick_fault(spec, suite);
    for (auto _ : state) {
        simulated_iut iut(spec, fault);
        benchmark::DoNotOptimize(diagnose(spec, suite, iut));
    }
}
BENCHMARK(bm_diagnose_machines)->Arg(2)->Arg(4)->Arg(6)->Unit(
    benchmark::kMicrosecond);

void bm_compose(benchmark::State& state) {
    const auto spec =
        make_system(static_cast<std::size_t>(state.range(0)), 4, 17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compose(spec, 1'000'000));
    }
    state.counters["product_states"] = static_cast<double>(
        compose(spec, 1'000'000).machine.state_count());
}
BENCHMARK(bm_compose)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Unit(
    benchmark::kMicrosecond);

void bm_transition_tour(benchmark::State& state) {
    const auto spec =
        make_system(3, static_cast<std::size_t>(state.range(0)), 19);
    for (auto _ : state) {
        benchmark::DoNotOptimize(transition_tour(spec));
    }
}
BENCHMARK(bm_transition_tour)->Arg(3)->Arg(6)->Arg(9)->Unit(
    benchmark::kMicrosecond);

void bm_splitting_search(benchmark::State& state) {
    const auto spec =
        make_system(3, static_cast<std::size_t>(state.range(0)), 23);
    const test_suite suite = transition_tour(spec).suite;
    const auto fault = pick_fault(spec, suite);
    simulated_iut iut(spec, fault);
    const auto report = collect_symptoms(spec, suite, iut);
    const auto confl = generate_conflict_sets(spec, report);
    const auto cands = generate_candidates(spec, report, confl);
    const auto dc =
        evaluate_candidates_escalated(spec, suite, report, cands);
    const hypothesis_tracker tracker(spec, dc.diagnoses());
    for (auto _ : state) {
        benchmark::DoNotOptimize(tracker.find_splitting_sequence());
    }
    state.counters["hypotheses"] = static_cast<double>(tracker.count());
}
BENCHMARK(bm_splitting_search)->Arg(3)->Arg(5)->Unit(
    benchmark::kMicrosecond);

/// Whole-campaign throughput through the engine, by worker count (Arg =
/// jobs; 0 = hardware concurrency).  UseRealTime because the work happens
/// on pool threads, not the benchmark thread.
void bm_campaign_jobs(benchmark::State& state) {
    const auto spec = make_system(3, 4, 29);
    const test_suite suite = transition_tour(spec).suite;
    auto faults = enumerate_all_faults(spec);
    if (faults.size() > 60) faults.resize(60);
    campaign_options opts;
    opts.jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        campaign_engine engine(spec, suite, faults, opts);
        benchmark::DoNotOptimize(engine.run().total);
    }
    state.counters["faults"] = static_cast<double>(faults.size());
    state.counters["workers"] =
        static_cast<double>(resolve_job_count(opts.jobs));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * faults.size()));
}
BENCHMARK(bm_campaign_jobs)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
