// Error type and precondition checking used throughout the library.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace cfsmdiag {

/// Thrown for violated preconditions and malformed models.  All library
/// errors derive from this so callers can catch one type.
class error : public std::runtime_error {
  public:
    explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a model violates the structural restrictions of the CFSM
/// model of the paper (Section 2.1), e.g. an internal output that is not an
/// external-output input of the receiving machine.
class model_error : public error {
  public:
    explicit model_error(const std::string& what) : error(what) {}
};

/// Thrown for failures that may succeed on retry: a flaky SUT losing its
/// reset, a hung connection, a lab glitch.  The resilient execution layer
/// (tester/resilient.hpp) retries these; everything else derived from
/// `error` is fatal.
class transient_error : public error {
  public:
    explicit transient_error(const std::string& what) : error(what) {}
};

/// Thrown when an interaction with the SUT exceeds its deadline (a hung
/// implementation, a lost observation that never arrives).  Retryable —
/// a reset usually unwedges the connection — hence a transient_error.
class timeout_error : public transient_error {
  public:
    explicit timeout_error(const std::string& what) : transient_error(what) {}
};

/// Thrown when a hard resource budget is exhausted: the simulator's
/// internal-chain hop budget, the async drain delivery budget, or the
/// resilient executor's per-test-case step budget.  Fatal — retrying the
/// same work hits the same budget.
class budget_exceeded : public error {
  public:
    explicit budget_exceeded(const std::string& what) : error(what) {}
};

/// Thrown when a persisted campaign snapshot cannot be trusted: torn or
/// truncated file, checksum mismatch, unknown format version, or a
/// fingerprint that proves the snapshot belongs to a different
/// (spec, suite, fault universe, options) world.  The loader falls back to
/// the previous good generation before throwing; once this escapes, no
/// safe resume exists — the sweep must restart rather than risk a wrong
/// resume.
class snapshot_error : public error {
  public:
    explicit snapshot_error(const std::string& what) : error(what) {}
};

/// Thrown for malformed command-line invocations: an unknown flag, a
/// missing value, or a value outside the flag's domain.  The message
/// always names the offending flag and the expected domain so the CLI can
/// report one structured diagnostic instead of scattering per-call-site
/// prints.
class usage_error : public error {
  public:
    explicit usage_error(const std::string& what) : error(what) {}
};

namespace detail {

/// Throws cfsmdiag::error with `msg` if `cond` is false.  Used for
/// public-API precondition checks; internal invariants use assert().
/// There is deliberately no std::string overload: a message built before
/// the call costs an allocation on every check that passes, which is
/// measurably hot in accessors like system::machine().
inline void require(bool cond, const char* msg) {
    if (!cond) throw error(msg);
}

/// Lazy-message overload for checks whose message needs concatenation:
/// the callable runs only on failure, so the success path costs one branch.
template <class MsgFn,
          std::enable_if_t<std::is_invocable_v<MsgFn&>, int> = 0>
inline void require(bool cond, MsgFn&& msg) {
    if (!cond) throw error(std::forward<MsgFn>(msg)());
}

inline void require_model(bool cond, const std::string& msg) {
    if (!cond) throw model_error(msg);
}

}  // namespace detail
}  // namespace cfsmdiag
