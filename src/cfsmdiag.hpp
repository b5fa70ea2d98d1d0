// Umbrella header for the cfsmdiag library.
//
// cfsmdiag reproduces "Diagnosis of Single Transition Faults in
// Communicating Finite State Machines" (Ghedamsi, v. Bochmann, Dssouli,
// ICDCS 1993): given a CFSM specification, a test suite that detected a
// fault, and black-box access to the implementation, it localizes the
// faulty transition and the exact fault (output, transfer, or both).
//
// Typical use:
//
//     #include "cfsmdiag.hpp"
//     using namespace cfsmdiag;
//
//     system spec = ...;                 // fsm_builder per machine
//     validate_structure(spec);
//     test_suite suite = transition_tour(spec).suite;
//     simulated_iut iut(spec, fault);    // or your own oracle
//     diagnosis_result r = diagnose(spec, suite, iut);
//     std::cout << summarize(spec, r);
#pragma once

#include "cfsm/alphabet.hpp"
#include "cfsm/async.hpp"
#include "cfsm/compose.hpp"
#include "cfsm/search.hpp"
#include "cfsm/simulator.hpp"
#include "cfsm/system.hpp"
#include "cfsm/trace.hpp"
#include "cfsm/validate.hpp"
#include "diag/additional_tests.hpp"
#include "diag/candidates.hpp"
#include "diag/compiled.hpp"
#include "diag/composite.hpp"
#include "diag/conflict.hpp"
#include "diag/diagnoser.hpp"
#include "diag/diagnosis.hpp"
#include "diag/discriminate.hpp"
#include "diag/hypotheses.hpp"
#include "diag/multi_fault.hpp"
#include "diag/report.hpp"
#include "diag/single_fsm.hpp"
#include "diag/spec_context.hpp"
#include "diag/symptom.hpp"
#include "diag/witness.hpp"
#include "fault/enumerate.hpp"
#include "fault/fault.hpp"
#include "fault/mutate.hpp"
#include "fault/oracle.hpp"
#include "fsm/analysis.hpp"
#include "fsm/builder.hpp"
#include "fsm/cover.hpp"
#include "fsm/distinguish.hpp"
#include "fsm/dot.hpp"
#include "fsm/fsm.hpp"
#include "fsm/minimize.hpp"
#include "fsm/separate.hpp"
#include "fsm/symbol.hpp"
#include "gen/campaign.hpp"
#include "gen/checkpoint.hpp"
#include "gen/engine.hpp"
#include "gen/random_system.hpp"
#include "cfsm/equivalence.hpp"
#include "io/snapshot.hpp"
#include "io/text_format.hpp"
#include "models/models.hpp"
#include "nondet/behaviours.hpp"
#include "nondet/diagnose.hpp"
#include "paperex/figure1.hpp"
#include "tester/coordinator.hpp"
#include "tester/flaky_sut.hpp"
#include "tester/resilient.hpp"
#include "tester/sut.hpp"
#include "testgen/diagnostic_suite.hpp"
#include "testgen/methods.hpp"
#include "testgen/mutation.hpp"
#include "testgen/random_walk.hpp"
#include "testgen/reduce.hpp"
#include "testgen/stats.hpp"
#include "testgen/testcase.hpp"
#include "testgen/tour.hpp"
#include "testgen/wsuite.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
