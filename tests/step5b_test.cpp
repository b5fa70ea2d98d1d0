// Step 5B's flagged walk (diag/diagnosis.cpp) against the reference Steps
// 5B-5C (tests/ref_oracle_steps.cpp, through the oracle's replay cache),
// which replay every hypothesis and count it and poll the budget once
// each.  The walk replays only the hypotheses the fault dictionary flags,
// and those without a slot, and charges the rest in closed form, so on
// every report it must give the same diagnostic candidates and the same
// hypothesis_replays() count as the oracle: routed, escalated, and
// escalated with addressing hypotheses, with the dictionary and without.
// Under every step quota up to the oracle's poll count it must throw what
// the oracle throws, at the same replay count and budget steps.
#include <gtest/gtest.h>

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

/// Every pass on `in`, with the context's dictionary and without, against
/// the oracle.  Returns the cases the dictionary spared the walk.
std::size_t expect_same_passes(const step5b_input& in) {
    std::size_t spared = 0;
    for (const pass p : all_passes) {
        SCOPED_TRACE(name_of(p));
        const pass_record want = in.oracle(p);
        const pass_record every = in.production(p, nullptr);
        const pass_record flagged = in.production(p, in.ctx->dictionary());
        expect_same_record(every, want);
        expect_same_record(flagged, want);
        EXPECT_LE(flagged.cases, every.cases);
        spared += every.cases - flagged.cases;
    }
    return spared;
}

/// At every step quota from 0 to the oracle's poll count of each pass, the
/// walk (with the dictionary) throws what the oracle throws, at the same
/// replay count and budget steps.
void expect_same_under_quotas(const step5b_input& in) {
    for (const pass p : all_passes) {
        SCOPED_TRACE(name_of(p));
        const std::size_t polls = in.oracle(p).replays;
        for (std::size_t quota = 0; quota <= polls; ++quota) {
            SCOPED_TRACE("step quota " + std::to_string(quota));
            run_budget oracle_budget;
            oracle_budget.with_step_quota(quota);
            run_budget walk_budget;
            walk_budget.with_step_quota(quota);
            const pass_record want = in.oracle(p, &oracle_budget);
            EXPECT_EQ(want.threw.empty(), quota == polls);
            expect_same_record(
                in.production(p, in.ctx->dictionary(), &walk_budget), want);
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
/// `sweep_window` detected faults.  Returns the cases the dictionary spared
/// the walk.
std::size_t expect_same_step5b(const spec_context& ctx,
                               std::size_t sweep_window = 20) {
    const system& spec = ctx.spec();
    ctx.build_dictionary();
    std::optional<single_transition_fault> sweep;
    std::size_t sweep_polls = 0, detected = 0, spared = 0;
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

TEST(step5b_walk, figure1_matches_the_oracle) {
    const auto ex = paperex::make_paper_example();
    const spec_context ctx(ex.spec, ex.suite);
    EXPECT_GT(expect_same_step5b(ctx), 0u);
}

TEST(step5b_walk, sliding_window4_matches_the_oracle) {
    const system spec = models::sliding_window(4);
    const spec_context ctx(spec, transition_tour(spec).suite);
    EXPECT_GT(expect_same_step5b(ctx), 0u);
}

TEST(step5b_walk, two_word_token_ring_matches_the_oracle) {
    const system spec = models::token_ring(65);
    const spec_context ctx(spec, transition_tour(spec).suite);
    ASSERT_EQ(ctx.compiled().words, 2u);
    EXPECT_GT(expect_same_step5b(ctx, 5), 0u);
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
        EXPECT_GT(expect_same_step5b(ctx), 0u);
    }
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
