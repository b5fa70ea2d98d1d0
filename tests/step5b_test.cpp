// Step 5B's walk (diag/diagnosis.cpp) against the reference Steps 5B-5C
// (tests/ref_oracle_steps.cpp, through the oracle's replay cache), which
// replay every hypothesis and count it and poll the budget once each.
// With a fault dictionary the walk replays only the hypotheses it flags,
// and those without a slot; without one it probes each column of next
// states once and replays the rows of the columns the probe leaves.  It
// charges the rest in closed form, so on every report it must give the
// same diagnostic candidates and the same hypothesis_replays() count as
// the oracle: routed, escalated, and escalated with addressing
// hypotheses, with the dictionary and without.  Under every step quota up
// to the oracle's poll count it must throw what the oracle throws, at the
// same replay count and budget steps.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <typeinfo>

#include "cfsmdiag.hpp"
#include "helpers.hpp"
#include "models/models.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

enum class pass { routed, escalated, addressing };

/// What one Step 5B pass did: its result or what it threw, the hypothesis
/// replays it counted and the budget steps it used, and the cases it
/// stepped or skipped (the replays it really ran).
struct pass_record {
    std::optional<diagnostic_candidates> result;
    std::string threw;
    std::size_t replays = 0;
    std::uint64_t steps = 0;
    std::size_t cases = 0;
};

std::size_t cases_resolved() {
    return replay_cache_case_skips() + replay_cache_suffix_replays();
}

template <class Run>
pass_record record(Run&& run, const run_budget* budget) {
    pass_record rec;
    const budget_scope scope(budget);
    const std::size_t before = hypothesis_replays();
    const std::size_t cases_before = cases_resolved();
    try {
        rec.result = run();
    } catch (const error& e) {
        rec.threw = std::string(typeid(e).name()) + ": " + e.what();
    }
    rec.replays = hypothesis_replays() - before;
    rec.cases = cases_resolved() - cases_before;
    if (budget) rec.steps = budget->steps_used();
    return rec;
}

/// One report of a context, with the oracle's Steps 4-5A and replay
/// cache.  Not movable: the cache points at the report.
struct step5b_input {
    const spec_context* ctx;
    symptom_report report;
    candidate_sets cands;
    ref_oracle::replay_cache cache;

    step5b_input(const spec_context& c, symptom_report r)
        : ctx(&c),
          report(std::move(r)),
          cands(ref_oracle::generate_candidates(
              c.spec(), report,
              ref_oracle::generate_conflict_sets(c.spec(), report))),
          cache(ref_oracle::make_replay_cache(c, report)) {}
    step5b_input(const step5b_input&) = delete;
    step5b_input& operator=(const step5b_input&) = delete;

    [[nodiscard]] pass_record production(
        pass p, const fault_dictionary* dictionary,
        const run_budget* budget = nullptr) const {
        const compiled_spec& cs = ctx->compiled();
        flat_replayer rep(cs, ctx->spec(), report, dictionary);
        return record(
            [&] {
                return p == pass::routed
                           ? evaluate_candidates(cs, rep, report, cands)
                           : evaluate_candidates_escalated(
                                 cs, rep, report, cands,
                                 p == pass::addressing);
            },
            budget);
    }

    [[nodiscard]] pass_record oracle(pass p,
                                     const run_budget* budget = nullptr) const {
        const system& spec = ctx->spec();
        const test_suite& suite = ctx->suite();
        return record(
            [&] {
                return p == pass::routed
                           ? ref_oracle::evaluate_candidates(spec, suite,
                                                             report, cands,
                                                             &cache)
                           : ref_oracle::evaluate_candidates_escalated(
                                 spec, suite, report, cands,
                                 p == pass::addressing, &cache);
            },
            budget);
    }
};

void expect_same_record(const pass_record& got, const pass_record& want) {
    EXPECT_EQ(got.threw, want.threw);
    EXPECT_EQ(got.replays, want.replays);
    EXPECT_EQ(got.steps, want.steps);
    ASSERT_EQ(got.result.has_value(), want.result.has_value());
    if (got.result)
        ref_oracle::expect_same_evaluation(*got.result, *want.result);
}

constexpr pass all_passes[] = {pass::routed, pass::escalated,
                               pass::addressing};

std::string name_of(pass p) {
    switch (p) {
        case pass::routed: return "routed";
        case pass::escalated: return "escalated";
        case pass::addressing: return "escalated with addressing";
    }
    return "?";
}

/// The case resolutions (case skips and suffix replays) each walk spared
/// against the oracle, which resolves cases as a replay of every
/// hypothesis does.  Each walk replays some of those hypotheses, each as
/// the oracle does (the column probe counts no case), so neither can
/// resolve more.
struct spared_cases {
    std::int64_t every = 0;    ///< without the dictionary
    std::int64_t flagged = 0;  ///< with it

    spared_cases& operator+=(const spared_cases& o) {
        every += o.every;
        flagged += o.flagged;
        return *this;
    }
};

std::int64_t spared(const pass_record& walk, const pass_record& want) {
    return static_cast<std::int64_t>(want.cases) -
           static_cast<std::int64_t>(walk.cases);
}

/// Every pass on `in`, with the context's dictionary and without, against
/// the oracle.
spared_cases expect_same_passes(const step5b_input& in) {
    spared_cases out;
    for (const pass p : all_passes) {
        SCOPED_TRACE(name_of(p));
        const pass_record want = in.oracle(p);
        const pass_record every = in.production(p, nullptr);
        const pass_record flagged = in.production(p, in.ctx->dictionary());
        expect_same_record(every, want);
        expect_same_record(flagged, want);
        EXPECT_LE(every.cases, want.cases);
        EXPECT_LE(flagged.cases, want.cases);
        out += {spared(every, want), spared(flagged, want)};
    }
    return out;
}

/// At every step quota from 0 to the oracle's poll count of each pass, the
/// walk, with the dictionary and without, throws what the oracle throws, at
/// the same replay count and budget steps.
void expect_same_under_quotas(const step5b_input& in) {
    for (const pass p : all_passes) {
        SCOPED_TRACE(name_of(p));
        const pass_record unbudgeted = in.oracle(p);
        const std::size_t polls = unbudgeted.replays;
        for (std::size_t quota = 0; quota <= polls; ++quota) {
            SCOPED_TRACE("step quota " + std::to_string(quota));
            run_budget oracle_budget;
            oracle_budget.with_step_quota(quota);
            const pass_record want = in.oracle(p, &oracle_budget);
            EXPECT_EQ(want.threw.empty(),
                      quota == polls && unbudgeted.threw.empty());
            for (const fault_dictionary* dictionary :
                 {in.ctx->dictionary(),
                  static_cast<const fault_dictionary*>(nullptr)}) {
                SCOPED_TRACE(dictionary ? "with the dictionary"
                                        : "without the dictionary");
                run_budget walk_budget;
                walk_budget.with_step_quota(quota);
                expect_same_record(in.production(p, dictionary, &walk_budget),
                                   want);
            }
        }
    }
}

/// The report of fault `f` on `ctx`, or nothing when the IUT livelocks.
std::optional<symptom_report> report_of(const spec_context& ctx,
                                        const single_transition_fault& f) {
    simulated_iut iut(ctx.spec(), f);
    try {
        return collect_symptoms(ctx.spec(), ctx.suite(), iut, ctx.traces());
    } catch (const budget_exceeded&) {
        return std::nullopt;
    }
}

/// Every fault's report on `ctx` (its dictionary built), then the quota
/// sweep on the report with the most hypotheses among the first
/// `sweep_window` detected faults.  Returns the cases each walk spared.
spared_cases expect_same_step5b(const spec_context& ctx,
                                std::size_t sweep_window = 20) {
    const system& spec = ctx.spec();
    ctx.build_dictionary();
    std::optional<single_transition_fault> sweep;
    std::size_t sweep_polls = 0, detected = 0;
    spared_cases spared;
    for (const auto& fault : enumerate_all_faults(spec)) {
        SCOPED_TRACE("IUT " + describe(spec, fault));
        auto report = report_of(ctx, fault);
        if (!report || !report->has_symptoms()) continue;
        const step5b_input in(ctx, std::move(*report));
        spared += expect_same_passes(in);
        if (detected++ < sweep_window) {
            const std::size_t polls = in.oracle(pass::addressing).replays;
            if (polls > sweep_polls) {
                sweep_polls = polls;
                sweep = fault;
            }
        }
    }
    if (!sweep) {
        ADD_FAILURE() << "no detected fault";
        return spared;
    }
    SCOPED_TRACE("quota sweep, IUT " + describe(spec, *sweep));
    expect_same_under_quotas(step5b_input(ctx, *report_of(ctx, *sweep)));
    return spared;
}

/// Both walks resolved fewer cases than the oracle over `ctx`'s reports.
void expect_both_walks_spare(const spared_cases& spared) {
    EXPECT_GT(spared.every, 0);
    EXPECT_GT(spared.flagged, 0);
}

TEST(step5b_walk, figure1_matches_the_oracle) {
    const auto ex = paperex::make_paper_example();
    const spec_context ctx(ex.spec, ex.suite);
    expect_both_walks_spare(expect_same_step5b(ctx));
}

TEST(step5b_walk, sliding_window4_matches_the_oracle) {
    const system spec = models::sliding_window(4);
    const spec_context ctx(spec, transition_tour(spec).suite);
    expect_both_walks_spare(expect_same_step5b(ctx));
}

TEST(step5b_walk, two_word_token_ring_matches_the_oracle) {
    const system spec = models::token_ring(65);
    const spec_context ctx(spec, transition_tour(spec).suite);
    ASSERT_EQ(ctx.compiled().words, 2u);
    // Every station has two states, so no column names two next states
    // and the walk without the dictionary probes none.
    EXPECT_GT(expect_same_step5b(ctx, 5).flagged, 0);
}

TEST(step5b_walk, two_word_three_state_station_matches_the_oracle) {
    // The ring above has two states per station, so none of its columns
    // names two next states and the walk without the dictionary probes
    // none.  The straddling ring's last station has three, in the second
    // word: its faults' reports probe on the runtime-width kernels.
    const system sys = testing_helpers::make_straddling_ring();
    const spec_context ctx(sys, transition_tour(sys).suite);
    ASSERT_EQ(ctx.compiled().words, 2u);
    ctx.build_dictionary();
    spared_cases spared;
    for (const auto& fault : enumerate_all_faults(sys)) {
        if (fault.target.machine.value != 63) continue;
        SCOPED_TRACE("IUT " + describe(sys, fault));
        auto report = report_of(ctx, fault);
        if (!report || !report->has_symptoms()) continue;
        spared += expect_same_passes(step5b_input(ctx, std::move(*report)));
    }
    expect_both_walks_spare(spared);
}

TEST(step5b_walk, random_systems_match_the_oracle) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        const system sys = random_system({}, random);
        test_suite suite = transition_tour(sys).suite;
        rng walk(seed + 1000);
        suite.extend(random_walk_suite(
            sys, walk, {.cases = 2, .steps_per_case = 8}));
        const spec_context ctx(sys, suite);
        expect_both_walks_spare(expect_same_step5b(ctx));
    }
}

/// An unvalidated system (validate_structure's Rule 3 ends every internal
/// chain at its receiver) whose chain returns to the machine it started
/// in: A's `go` sends m to B, whose `echo` sends n back to A, and A's
/// answer to n names the state `go` left it in.  So the observation of the
/// step that fires `go` depends on `go`'s next state.
system make_echo_system() {
    symbol_table symbols;
    fsm_builder a("A", symbols);
    a.internal("go", "a0", "x", "m", "a1", machine_id{1});
    a.external("n0", "a0", "n", "p0", "a0");
    a.external("n1", "a1", "n", "p1", "a1");
    a.external("n2", "a2", "n", "p2", "a2");
    a.external("z1", "a1", "z", "q1", "a1");
    fsm_builder b("B", symbols);
    b.internal("echo", "b0", "m", "n", "b0", machine_id{0});
    std::vector<fsm> machines;
    machines.push_back(a.build("a0"));
    machines.push_back(b.build("b0"));
    return system("echo", std::move(symbols), std::move(machines));
}

TEST(step5b_walk, a_chain_back_to_the_target_machine_matches_the_oracle) {
    // The probe of `go`'s next-state column steps with one next state; the
    // message back to A makes that step's observation its own, so the
    // probe decides nothing and each next state is replayed.
    const system sys = make_echo_system();
    const auto at = [&](std::uint32_t m, const char* sym) {
        return global_input::at(machine_id{m}, sys.symbols().lookup(sym));
    };
    test_suite suite;
    suite.add(test_case::from_inputs("t1", {at(0, "x"), at(0, "z")}));
    const spec_context ctx(sys, suite);
    expect_same_step5b(ctx);

    // go -> a2 is observed at the echo: p2 where the spec answers p1.
    const global_transition_id go{machine_id{0}, transition_id{0}};
    const single_transition_fault truth{go, std::nullopt, state_id{2}};
    const auto report = report_of(ctx, truth);
    ASSERT_TRUE(report && report->has_symptoms());
    EXPECT_EQ(*report->runs[0].first_symptom,
              ctx.compiled().cases[0].first_fire[ctx.compiled().dense_id(go)]);
    flat_replayer rep(ctx.compiled(), sys, *report);
    EXPECT_FALSE(
        rep.refutes_column({go, std::nullopt, state_id{0}}));
    EXPECT_TRUE(rep.matches(truth.to_override()));
}

TEST(step5b_walk, targets_first_firing_after_case_0_match_the_oracle) {
    // Case 0 only resets, so every target first fires in a later case, and
    // the probe must look past case 0 to refute a column.
    for (const bool figure1 : {true, false}) {
        const auto ex = paperex::make_paper_example();
        const system spec = figure1 ? ex.spec : models::sliding_window(4);
        SCOPED_TRACE(spec.name());
        test_suite suite;
        suite.add(test_case::from_inputs("idle", {global_input::reset()}));
        suite.extend(figure1 ? ex.suite : transition_tour(spec).suite);
        const spec_context ctx(spec, suite);
        expect_both_walks_spare(expect_same_step5b(ctx));
    }
}

/// An unvalidated three-machine system in which one hypothesis's chain
/// livelocks: A's `go` sends m to B, which answers at its port, while `go`
/// sending k instead (k is in its pool: `alt` sends k to B) starts a B-C
/// ping-pong past the hop budget, away from A.
system make_livelock_system() {
    symbol_table symbols;
    fsm_builder a("A", symbols);
    a.internal("go", "a0", "x", "m", "a1", machine_id{1});
    a.internal("alt", "a1", "y", "k", "a1", machine_id{1});
    a.external("z0", "a0", "z", "o0", "a0");
    a.external("z1", "a1", "z", "o1", "a1");
    a.external("z2", "a2", "z", "o2", "a2");
    fsm_builder b("B", symbols);
    b.external("bm", "b0", "m", "u", "b0");
    b.internal("bk", "b0", "k", "n", "b0", machine_id{2});
    fsm_builder c("C", symbols);
    c.internal("cn", "c0", "n", "k", "c0", machine_id{1});
    std::vector<fsm> machines;
    machines.push_back(a.build("a0"));
    machines.push_back(b.build("b0"));
    machines.push_back(c.build("c0"));
    return system("livelock", std::move(symbols), std::move(machines));
}

TEST(step5b_walk, a_probe_step_that_throws_matches_the_oracle) {
    // The probe of `go`'s column k throws past the hop budget.  A throw
    // decides nothing: the rows are replayed, and the first one throws
    // where the oracle throws.
    const system sys = make_livelock_system();
    const auto at = [&](std::uint32_t m, const char* sym) {
        return global_input::at(machine_id{m}, sys.symbols().lookup(sym));
    };
    test_suite suite;
    suite.add(test_case::from_inputs(
        "t1", {at(0, "x"), at(0, "z"), at(0, "z"), at(0, "z")}));
    const spec_context ctx(sys, suite);
    expect_same_step5b(ctx);

    // go -> a2 shows at every later z, so the report's flag routes `go`'s
    // outputs to statout, whose column k throws.
    const global_transition_id go{machine_id{0}, transition_id{0}};
    const auto report =
        report_of(ctx, {go, std::nullopt, state_id{2}});
    ASSERT_TRUE(report && report->flag);
    const step5b_input in(ctx, *report);
    const pass_record routed = in.production(pass::routed, nullptr);
    EXPECT_NE(routed.threw.find("hop"), std::string::npos) << routed.threw;
    flat_replayer rep(ctx.compiled(), sys, *report);
    EXPECT_FALSE(rep.refutes_column(
        {go, sys.symbols().lookup("k"), state_id{0}}));
}

TEST(step5b_walk, thrown_slots_and_quarantined_cases_match_the_oracle) {
    // Ping-pong: a transfer into q1 livelocks, so its fill threw and its
    // slot has no signature; the walk replays it, and it throws where the
    // oracle throws.
    const system pp = testing_helpers::make_ping_pong_system();
    const auto at = [&](std::uint32_t m, const char* sym) {
        return global_input::at(machine_id{m}, pp.symbols().lookup(sym));
    };
    test_suite pp_suite;
    pp_suite.add(test_case::from_inputs(
        "t1", {at(0, "go"), at(1, "p"), at(0, "go")}));
    pp_suite.add(test_case::from_inputs("t2", {at(1, "p"), at(0, "go")}));
    const spec_context pp_ctx(pp, pp_suite);
    expect_same_step5b(pp_ctx);
    const auto& sigs = pp_ctx.dictionary()->signature;
    EXPECT_NE(std::find(sigs.begin(), sigs.end(),
                        fault_dictionary::no_signature),
              sigs.end());

    // A report with a quarantined case flags every hypothesis: the
    // reports of random systems with two symptomatic cases, the first
    // quarantined.
    std::size_t checked = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        const system sys = random_system({}, random);
        test_suite suite = transition_tour(sys).suite;
        rng walk(seed + 1000);
        suite.extend(random_walk_suite(
            sys, walk, {.cases = 3, .steps_per_case = 10}));
        const spec_context ctx(sys, suite);
        ctx.build_dictionary();
        bool swept = false;
        for (const auto& fault : enumerate_all_faults(sys)) {
            const auto report = report_of(ctx, fault);
            if (!report || report->symptomatic_cases.size() < 2) continue;
            SCOPED_TRACE("IUT " + describe(sys, fault));
            const step5b_input in(
                ctx, testing_helpers::quarantine_first_symptomatic(*report));
            EXPECT_EQ(flat_replayer(ctx.compiled(), sys, in.report,
                                    ctx.dictionary())
                          .flagged(),
                      nullptr);
            expect_same_passes(in);
            if (!swept) expect_same_under_quotas(in);
            swept = true;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace cfsmdiag
