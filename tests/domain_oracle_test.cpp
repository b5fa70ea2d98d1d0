// The fault-domain oracle: checks the diagnoser's claim, not its algorithm.
//
// The claim (Vaandrager & Melse's completeness relative to a fault domain):
// for an IUT whose only defect is one single-transition fault of the
// domain (output, transfer or output+transfer, enumerate_all_faults, plus
// the addressing faults of enumerate_addressing_faults when the diagnoser
// hypothesizes them), the final diagnoses are exactly the hypotheses of
// the domain that explain every trusted observation of the run, up to
// observational equivalence.
//
// For each injected fault the oracle builds C: every domain hypothesis
// whose `observe` output equals the IUT's answer on every suite case and
// every additional test the run applied.  It then checks that
//   1. every final diagnosis that lies in the domain is in C,
//   2. every member of C is a final diagnosis, or equivalent to one,
//   3. the outcome (localized, up to equivalence, ambiguous) and the
//      campaign's `sound` bit follow from C, and C is one equivalence class
//      unless Step 6 used up its additional tests.  With Step 6's searches
//      capped below their defaults, a run may stop short of a split the
//      oracle's search finds, so a C of several members then only needs an
//      ambiguous or up-to-equivalence verdict.
// This side uses only the reference simulator (`simulator`, `observe`) and
// the test-side reference joint search for equivalence; it shares no
// pruning, routing or stop rule with the pipeline it checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "cfsmdiag.hpp"
#include "models/models.hpp"
#include "reference_oracle.hpp"

namespace cfsmdiag {
namespace {

using namespace ref_oracle;  // the reference joint search

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0xbf58476d1ce4e5b9ull;
}

std::uint64_t hash_outputs(std::uint64_t h,
                           const std::vector<observation>& outs) {
    for (const observation& o : outs) {
        h = mix(h, o.port ? o.port->value + 1 : 0);
        h = mix(h, o.output.id);
    }
    return mix(h, outs.size());
}

/// Observational equivalence by the reference joint search.
bool equivalent(const system& spec, const single_transition_fault& a,
                const single_transition_fault& b) {
    return a == b ||
           !splitting_sequence(spec, {{a.to_override()}, {b.to_override()}},
                               100'000)
                .has_value();
}

/// Whether `o` caps Step 6's searches below the defaults.
bool capped(const diagnoser_options& o) {
    const diagnoser_options defaults;
    return o.max_joint_states < defaults.max_joint_states ||
           o.step6.search.max_states < defaults.step6.search.max_states;
}

/// The domain of one (spec, suite) under the diagnoser options `o`, with
/// every hypothesis's suite output hashed once, so that C's candidates for
/// a fault are one lookup.
class domain_oracle {
  public:
    domain_oracle(const system& spec, const test_suite& suite,
                  const diagnoser_options& o)
        : spec_(spec),
          suite_(suite),
          domain_(enumerate_all_faults(spec)),
          capped_(capped(o)) {
        if (o.include_addressing_faults) {
            const auto addressing = enumerate_addressing_faults(spec);
            domain_.insert(domain_.end(), addressing.begin(),
                           addressing.end());
        }
        in_domain_.insert(domain_.begin(), domain_.end());
        for (std::size_t h = 0; h < domain_.size(); ++h) {
            simulator sim(spec, domain_[h].to_override());
            std::uint64_t sig = 0;
            for (const test_case& tc : suite.cases)
                sig = hash_outputs(sig, sim.run_from_reset(tc.inputs));
            by_suite_output_[sig].push_back(h);
        }
    }

    [[nodiscard]] const std::vector<single_transition_fault>& domain()
        const noexcept {
        return domain_;
    }

    /// Checks one diagnosis of `truth` and its campaign entry against C;
    /// returns the number of violations it reported.
    std::size_t check(const single_transition_fault& truth,
                      const diagnosis_result& r, const campaign_entry& e) {
        SCOPED_TRACE("fault " + describe(spec_, truth));
        const int failures_before = failures();
        EXPECT_TRUE(r.reliability.quarantined_cases == 0 &&
                    r.reliability.quarantined_tests == 0)
            << "the domain oracle runs on a clean lab";

        // Every trusted observation of the run.
        std::vector<std::pair<const std::vector<global_input>*,
                              const std::vector<observation>*>>
            evidence;
        std::uint64_t sig = 0;
        for (std::size_t ci = 0; ci < suite_.cases.size(); ++ci) {
            evidence.emplace_back(&suite_.cases[ci].inputs,
                                  &r.symptoms.runs[ci].observed);
            sig = hash_outputs(sig, r.symptoms.runs[ci].observed);
        }
        for (const additional_test_record& rec : r.additional_tests) {
            if (!rec.quarantined)
                evidence.emplace_back(&rec.tc.inputs, &rec.observed);
        }

        // C: the domain hypotheses that explain all of it.
        std::vector<single_transition_fault> c;
        if (const auto it = by_suite_output_.find(sig);
            it != by_suite_output_.end()) {
            for (const std::size_t h : it->second) {
                const auto ov = domain_[h].to_override();
                const bool explains = std::all_of(
                    evidence.begin(), evidence.end(), [&](const auto& ev) {
                        return observe(spec_, *ev.first, ov) == *ev.second;
                    });
                if (explains) c.push_back(domain_[h]);
            }
        }
        const bool detected = r.symptoms.has_symptoms();
        const auto& finals = r.final_diagnoses;

        if (!detected) {
            EXPECT_EQ(r.outcome, diagnosis_outcome::passed);
            EXPECT_TRUE(finals.empty());
        } else {
            // The truth explains its own run.
            EXPECT_NE(std::find(c.begin(), c.end(), truth), c.end());
            // 1. Finals in the domain explain every observation.
            bool all_in_domain = true;
            for (const diagnosis& d : finals) {
                if (in_domain_.count(d) == 0) {
                    all_in_domain = false;
                    continue;
                }
                EXPECT_NE(std::find(c.begin(), c.end(), d), c.end())
                    << "final diagnosis " << describe(spec_, d)
                    << " contradicts an observation";
            }
            // 2. No explaining hypothesis was lost.
            for (const single_transition_fault& h : c) {
                const bool kept =
                    std::find(finals.begin(), finals.end(), h) !=
                        finals.end() ||
                    std::any_of(finals.begin(), finals.end(),
                                [&](const diagnosis& d) {
                                    return equivalent(spec_, h, d);
                                });
                EXPECT_TRUE(kept) << "consistent hypothesis "
                                  << describe(spec_, h)
                                  << " is neither a final diagnosis nor "
                                     "equivalent to one";
            }
            // 3. The outcome follows from C.
            if (all_in_domain && c.size() > 1 && capped_) {
                EXPECT_TRUE(
                    r.outcome ==
                        diagnosis_outcome::localized_up_to_equivalence ||
                    r.outcome == diagnosis_outcome::ambiguous)
                    << to_string(r.outcome);
            } else if (all_in_domain && !c.empty()) {
                diagnosis_outcome want = diagnosis_outcome::localized;
                if (c.size() > 1) {
                    const bool one_class = std::all_of(
                        c.begin() + 1, c.end(),
                        [&](const single_transition_fault& h) {
                            return equivalent(spec_, c.front(), h);
                        });
                    want = one_class
                               ? diagnosis_outcome::localized_up_to_equivalence
                               : diagnosis_outcome::ambiguous;
                    // Completeness: distinguishable explanations survive
                    // only a run that used up its additional tests.
                    EXPECT_TRUE(one_class ||
                                r.additional_tests.size() >=
                                    diagnoser_options{}.max_additional_tests)
                        << c.size() << " distinguishable hypotheses explain "
                        << "the run, and Step 6 stopped early";
                }
                EXPECT_EQ(r.outcome, want);
            }
        }

        // The campaign scores the same run.
        const bool sound =
            detected && std::any_of(finals.begin(), finals.end(),
                                    [&](const diagnosis& d) {
                                        return equivalent(spec_, truth, d);
                                    });
        EXPECT_EQ(e.fault, truth);
        EXPECT_EQ(e.outcome, r.outcome);
        EXPECT_EQ(e.detected, detected);
        EXPECT_EQ(e.sound, sound);
        return static_cast<std::size_t>(failures() - failures_before);
    }

  private:
    static int failures() {
        return ::testing::UnitTest::GetInstance()
            ->current_test_info()
            ->result()
            ->total_part_count();
    }

    const system& spec_;
    const test_suite& suite_;
    std::vector<single_transition_fault> domain_;
    bool capped_;
    std::set<single_transition_fault> in_domain_;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>
        by_suite_output_;
};

/// Diagnoses every `stride`-th fault of the domain under `o`, alone and
/// through one campaign, and holds both to the oracle.  Returns the faults
/// checked.
std::size_t check_system(const system& spec, const test_suite& suite,
                         std::size_t stride = 1,
                         const diagnoser_options& o = {}) {
    domain_oracle oracle(spec, suite, o);
    std::vector<single_transition_fault> faults;
    for (std::size_t i = 0; i < oracle.domain().size(); i += stride)
        faults.push_back(oracle.domain()[i]);
    campaign_options options;
    options.diag = o;
    const campaign_stats stats = run_campaign(spec, suite, faults, options);
    EXPECT_EQ(stats.entries.size(), faults.size());
    if (stats.entries.size() != faults.size()) return 0;

    const spec_context ctx(spec, suite);
    std::size_t violations = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        simulated_iut iut(spec, faults[i]);
        const diagnosis_result r = diagnose(ctx, iut, o);
        violations += oracle.check(faults[i], r, stats.entries[i]);
        if (violations > 20) break;  // enough to see what went wrong
    }
    EXPECT_EQ(violations, 0u) << "on " << spec.name();
    return faults.size();
}

TEST(domain_oracle, figure1_with_table1_cases) {
    const auto ex = paperex::make_paper_example();
    EXPECT_GT(check_system(ex.spec, ex.suite), 0u);
}

TEST(domain_oracle, figure1_with_its_tour) {
    const auto ex = paperex::make_paper_example();
    const test_suite tour = transition_tour(ex.spec).suite;
    EXPECT_GT(check_system(ex.spec, tour), 0u);
}

TEST(domain_oracle, library_models) {
    for (const auto& [name, spec] : models::all_models()) {
        SCOPED_TRACE(name);
        check_system(spec, transition_tour(spec).suite);
    }
}

TEST(domain_oracle, zoo_models) {
    for (const auto& [name, spec] : models::zoo_models()) {
        SCOPED_TRACE(name);
        // sliding_window(8) has 9,064 faults; every 100th keeps the test
        // to seconds.
        const std::size_t stride = name == "sliding_window8" ? 100 : 1;
        check_system(spec, transition_tour(spec).suite, stride);
    }
}

TEST(domain_oracle, random_systems_seeds_1_to_100) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        const system spec = random_system({}, random);
        check_system(spec, transition_tour(spec).suite);
        if (HasFailure()) break;
    }
}

TEST(domain_oracle, addressing_faults) {
    // The addressing hypotheses have no dictionary slot: Step 5B replays
    // each of them.  The domain and the IUTs include the addressing faults.
    diagnoser_options o;
    o.include_addressing_faults = true;
    const auto ex = paperex::make_paper_example();
    EXPECT_GT(check_system(ex.spec, ex.suite, 1, o), 0u);
    EXPECT_GT(check_system(ex.spec, transition_tour(ex.spec).suite, 1, o),
              0u);
    for (const auto& [name, spec] : models::all_models()) {
        SCOPED_TRACE(name);
        check_system(spec, transition_tour(spec).suite, 1, o);
    }
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng random(seed);
        const system spec = random_system({}, random);
        check_system(spec, transition_tour(spec).suite, 1, o);
        if (HasFailure()) break;
    }
}

TEST(domain_oracle, two_word_token_ring_with_small_step6_caps) {
    // 65 stations take two packed words, so Step 5B reads a two-word
    // dictionary and its index; Step 6's searches are capped small.
    const system spec = models::token_ring(65);
    const test_suite suite = transition_tour(spec).suite;
    ASSERT_EQ(spec_context(spec, suite).compiled().words, 2u);
    diagnoser_options o;
    o.max_joint_states = 500;
    o.step6.search.max_states = 500;
    EXPECT_GT(check_system(spec, suite, 1, o), 0u);
}

}  // namespace
}  // namespace cfsmdiag
