// A-priori diagnostic test suites (full diagnostic power, no adaptivity).
//
// The non-adaptive alternative to the paper's Step 6, in the spirit of the
// authors' companion work on diagnostic tests for CFSMs [7]: construct, up
// front, a suite that both *detects* and *localizes* every fault of the
// single-transition model.  Formally, the suite separates
//   - the specification from every fault hypothesis (detection), and
//   - every pair of non-equivalent hypotheses (localization),
// so that after one non-adaptive run the observations identify the fault up
// to observational equivalence.
//
// Built greedily: refine a partition of {spec} ∪ hypotheses by observation
// signature; while a block holds two non-equivalent members, add their
// shortest splitting sequence as a test and refine by that test alone,
// each hypothesis's outputs predicted on the compiled tables.  The result
// is the honest "strong diagnostic power" baseline for the
// adaptive-vs-suites benchmark — the paper's claim is precisely that
// adaptive diagnosis avoids paying this suite's cost on every test
// campaign.
#pragma once

#include "diag/discriminate.hpp"
#include "fault/enumerate.hpp"
#include "testgen/testcase.hpp"

namespace cfsmdiag {

struct diagnostic_suite_options {
    std::size_t max_joint_states = 50'000;
    std::size_t max_tests = 5'000;
    /// Optional cap on the hypothesis universe (deterministic subsample).
    std::size_t max_hypotheses = 100'000;
};

struct diagnostic_suite_result {
    test_suite suite;
    std::size_t hypotheses = 0;
    /// Hypothesis groups left unseparated because they are observationally
    /// equivalent (irreducible) — the localization limit.
    std::size_t equivalent_groups = 0;
    /// True if max_tests was hit before full separation.
    bool truncated = false;
};

/// Builds the suite over all single-transition faults of `spec`.
[[nodiscard]] diagnostic_suite_result apriori_diagnostic_suite(
    const system& spec, const diagnostic_suite_options& options = {});

}  // namespace cfsmdiag
