// Shared fixtures for the unit tests: a small two-machine system and
// shortcuts for building inputs/observations.
#pragma once

#include <string>
#include <vector>

#include "cfsmdiag.hpp"

namespace cfsmdiag::testing_helpers {

/// Two machines, fully hand-checkable:
///   A (port 1, states p0 p1):
///     a1 p0 -x/ok→ p1        a2 p1 -x/ok2→ p0
///     a3 p0 -send/msg1⇒B → p0   a4 p1 -send/msg2⇒B → p1
///   B (port 2, states q0 q1):
///     b1 q0 -msg1/r1→ q1     b2 q0 -msg2/r2→ q0
///     b3 q1 -msg1/r2→ q0     b4 q1 -msg2/r1→ q1
///     b5 q0 -y/r1→ q1
inline system make_pair_system() {
    symbol_table symbols;
    const machine_id b{1};
    fsm_builder ba("A", symbols);
    ba.external("a1", "p0", "x", "ok", "p1");
    ba.external("a2", "p1", "x", "ok2", "p0");
    ba.internal("a3", "p0", "send", "msg1", "p0", b);
    ba.internal("a4", "p1", "send", "msg2", "p1", b);
    fsm_builder bb("B", symbols);
    bb.external("b1", "q0", "msg1", "r1", "q1");
    bb.external("b2", "q0", "msg2", "r2", "q0");
    bb.external("b3", "q1", "msg1", "r2", "q0");
    bb.external("b4", "q1", "msg2", "r1", "q1");
    bb.external("b5", "q0", "y", "r1", "q1");
    std::vector<fsm> machines;
    machines.push_back(ba.build("p0"));
    machines.push_back(bb.build("q0"));
    return system("pair", std::move(symbols), std::move(machines));
}

/// Input at a port by spelling.
inline global_input in(const system& sys, std::uint32_t port_1based,
                       const std::string& sym) {
    return global_input::at(machine_id{port_1based - 1},
                            sys.symbols().lookup(sym));
}

/// Expected observation at a port by spelling.
inline observation at(const system& sys, std::uint32_t port_1based,
                      const std::string& sym) {
    return observation::at(machine_id{port_1based - 1},
                           sys.symbols().lookup(sym));
}

/// Finds a transition id by display name.
inline global_transition_id tid(const system& sys, std::uint32_t machine,
                                const std::string& name) {
    const machine_id m{machine};
    const fsm& f = sys.machine(m);
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(f.transitions().size()); ++i) {
        if (f.transitions()[i].name == name) return {m, transition_id{i}};
    }
    throw error("tid: no transition named " + name);
}

/// Renders observations compactly for EXPECT_EQ diffs.
inline std::string render(const system& sys,
                          const std::vector<observation>& obs) {
    std::vector<std::string> cells;
    for (const auto& o : obs) cells.push_back(to_string(o, sys.symbols()));
    return join(cells, ", ");
}

/// `report` with its first symptomatic case quarantined, as
/// collect_symptoms records an untrusted run.
inline symptom_report quarantine_first_symptomatic(symptom_report report) {
    const std::size_t ci = report.symptomatic_cases.front();
    executed_case& run = report.runs[ci];
    run.quarantined = true;
    run.quarantine_reason = "no majority";
    run.symptom_steps.clear();
    run.first_symptom.reset();
    run.symptom_transition.reset();
    report.symptomatic_cases.erase(report.symptomatic_cases.begin());
    report.quarantined_cases.push_back(ci);
    return report;
}

/// Two machines that ping-pong m1/m2 forever once B reaches q1, which the
/// spec never does: a transfer fault into q1 makes the next `go` exceed the
/// internal hop budget.
inline system make_ping_pong_system() {
    symbol_table symbols;
    fsm_builder a("A", symbols);
    a.internal("a1", "s0", "go", "m1", "s0", machine_id{1});
    a.internal("a2", "s0", "m2", "m1", "s0", machine_id{1});
    fsm_builder b("B", symbols);
    b.external("b1", "q0", "m1", "x", "q0");
    b.external("b3", "q0", "p", "y", "q0");
    b.internal("b2", "q1", "m1", "m2", "q1", machine_id{0});
    std::vector<fsm> machines;
    machines.push_back(a.build("s0"));
    machines.push_back(b.build("q0"));
    return system("ping_pong", std::move(symbols), std::move(machines));
}

/// token_ring(64)'s shape, except that the last station has a third state
/// (it can hold the token): its two-bit field would take bits 63 and 64, so
/// it opens the second word instead.  One token keeps the reachable global
/// states few, as on the ring.
inline system make_straddling_ring() {
    constexpr std::size_t n = 64;
    symbol_table symbols;
    const auto tok = [](std::size_t from, std::size_t to) {
        return "tok" + std::to_string(from) + "_" + std::to_string(to);
    };
    std::vector<fsm> machines;
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t next = i % n + 1;
        const std::size_t prev = (i + n - 2) % n + 1;
        const std::string name = "St" + std::to_string(i);
        fsm_builder b(name, symbols);
        b.external("recv_" + name, "idle", tok(prev, i), "got", "has");
        b.internal("pass_" + name, "has", "pass", tok(i, next), "idle",
                   machine_id{static_cast<std::uint32_t>(next - 1)});
        b.external("qi_" + name, "idle", "query", "no", "idle");
        b.external("qh_" + name, "has", "query", "yes", "has");
        if (i == 1)
            b.external("inject1", "idle", "inject", "created", "has");
        if (i == n) {
            b.external("hold_" + name, "has", "hold", "held", "busy");
            b.external("free_" + name, "busy", "hold", "freed", "has");
            b.external("qb_" + name, "busy", "query", "busy", "busy");
        }
        machines.push_back(b.build("idle"));
    }
    return system("straddling_ring", std::move(symbols), std::move(machines));
}

}  // namespace cfsmdiag::testing_helpers
