#include "models/models.hpp"

#include "cfsm/validate.hpp"
#include "fsm/builder.hpp"
#include "util/error.hpp"

namespace cfsmdiag::models {

system alternating_bit() {
    symbol_table symbols;
    const machine_id S{0}, R{1};

    // Sender (port P1): 'send'/'retry' are local commands; a0/a1 arrive
    // from the receiver; 'ok'/'ign' are observable at P1.
    fsm_builder s("S", symbols);
    s.internal("s_send0", "idle0", "send", "d0", "sent0", R);
    s.internal("s_retry0", "sent0", "retry", "d0", "sent0", R);
    s.external("s_ack0", "sent0", "a0", "ok", "idle1");
    s.external("s_stale1", "sent0", "a1", "ign", "sent0");
    s.internal("s_send1", "idle1", "send", "d1", "sent1", R);
    s.internal("s_retry1", "sent1", "retry", "d1", "sent1", R);
    s.external("s_ack1", "sent1", "a1", "ok", "idle0");
    s.external("s_stale0", "sent1", "a0", "ign", "sent1");

    // Receiver (port P2): d0/d1 arrive from the sender (or the port for
    // direct probing); 'ackreq' is the local command that acknowledges.
    fsm_builder r("R", symbols);
    r.external("r_recv0", "exp0", "d0", "del0", "exp1");
    r.external("r_dup1", "exp0", "d1", "dup", "exp0");
    r.internal("r_ack1", "exp0", "ackreq", "a1", "exp0", S);
    r.external("r_recv1", "exp1", "d1", "del1", "exp0");
    r.external("r_dup0", "exp1", "d0", "dup", "exp1");
    r.internal("r_ack0", "exp1", "ackreq", "a0", "exp1", S);

    std::vector<fsm> machines;
    machines.push_back(s.build("idle0"));
    machines.push_back(r.build("exp0"));
    system sys("alternating_bit", std::move(symbols), std::move(machines));
    validate_structure(sys);
    return sys;
}

system connection_management() {
    symbol_table symbols;
    const machine_id I{0}, R{1};

    // Initiator (port P1).  Local commands: conn, data, disc.  Messages
    // from the responder: cacc (accepted), crej (rejected), cls (closed by
    // peer indication is not modelled — disconnection is initiator-driven).
    fsm_builder i("I", symbols);
    i.internal("i_conn", "closed", "conn", "creq", "waiting", R);
    i.external("i_confirm", "waiting", "cacc", "confirmed", "open");
    i.external("i_refused", "waiting", "crej", "refused", "closed");
    i.internal("i_data", "open", "data", "dat", "open", R);
    i.internal("i_disc", "open", "disc", "dreq", "closed", R);
    i.external("i_status_c", "closed", "status", "is_closed", "closed");
    i.external("i_status_w", "waiting", "status", "is_waiting", "waiting");
    i.external("i_status_o", "open", "status", "is_open", "open");

    // Responder (port P2).  Local commands: accept, reject.  Messages from
    // the initiator: creq, dat, dreq.
    fsm_builder r("Resp", symbols);
    r.external("r_indicate", "listen", "creq", "indication", "pending");
    r.internal("r_accept", "pending", "accept", "cacc", "open", I);
    r.internal("r_reject", "pending", "reject", "crej", "listen", I);
    r.external("r_deliver", "open", "dat", "deliver", "open");
    r.external("r_closed", "open", "dreq", "closed_ind", "listen");
    r.external("r_stale", "listen", "dreq", "stale", "listen");
    r.external("r_status_l", "listen", "qstate", "is_listen", "listen");
    r.external("r_status_p", "pending", "qstate", "is_pending", "pending");
    r.external("r_status_o", "open", "qstate", "is_open2", "open");

    std::vector<fsm> machines;
    machines.push_back(i.build("closed"));
    machines.push_back(r.build("listen"));
    system sys("connection_management", std::move(symbols),
               std::move(machines));
    validate_structure(sys);
    return sys;
}

system token_ring3() {
    symbol_table symbols;
    const machine_id M1{0}, M2{1}, M3{2};

    // Each station: 'inject' (P1 only) creates the token, 'pass' forwards
    // it to the next station (observable "got" at the receiver's port),
    // 'query' reports token ownership, a duplicate token is flagged.
    auto station = [&](const std::string& name, machine_id next,
                       const std::string& tok_out,
                       const std::string& tok_in) {
        fsm_builder b(name, symbols);
        b.external("recv_" + name, "idle", tok_in, "got", "has");
        b.external("dup_" + name, "has", tok_in, "dup_err", "has");
        b.internal("pass_" + name, "has", "pass", tok_out, "idle", next);
        b.external("qi_" + name, "idle", "query", "no", "idle");
        b.external("qh_" + name, "has", "query", "yes", "has");
        return b;
    };

    fsm_builder b1 = station("St1", M2, "tok12", "tok31");
    // Station 1 additionally owns token injection.
    b1.external("inject1", "idle", "inject", "created", "has");
    fsm_builder b2 = station("St2", M3, "tok23", "tok12");
    fsm_builder b3 = station("St3", M1, "tok31", "tok23");

    std::vector<fsm> machines;
    machines.push_back(b1.build("idle"));
    machines.push_back(b2.build("idle"));
    machines.push_back(b3.build("idle"));
    system sys("token_ring3", std::move(symbols), std::move(machines));
    validate_structure(sys);
    return sys;
}

std::vector<std::pair<std::string, system>> all_models() {
    std::vector<std::pair<std::string, system>> out;
    out.emplace_back("alternating_bit", alternating_bit());
    out.emplace_back("connection_management", connection_management());
    out.emplace_back("token_ring3", token_ring3());
    return out;
}

system token_ring(std::size_t n) {
    detail::require(n >= 2, "token_ring: need at least 2 stations");

    symbol_table symbols;
    // Identical station shape to token_ring3(), generalized: station i
    // (1-based) receives from i-1 and passes to i+1, ring-wrapped.
    auto station = [&](const std::string& name, machine_id next,
                       const std::string& tok_out,
                       const std::string& tok_in) {
        fsm_builder b(name, symbols);
        b.external("recv_" + name, "idle", tok_in, "got", "has");
        b.external("dup_" + name, "has", tok_in, "dup_err", "has");
        b.internal("pass_" + name, "has", "pass", tok_out, "idle", next);
        b.external("qi_" + name, "idle", "query", "no", "idle");
        b.external("qh_" + name, "has", "query", "yes", "has");
        return b;
    };
    auto tok = [](std::size_t from, std::size_t to) {
        return "tok" + std::to_string(from) + std::to_string(to);
    };

    std::vector<fsm_builder> builders;
    builders.reserve(n);
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t next = i % n + 1;
        const std::size_t prev = (i + n - 2) % n + 1;
        const machine_id to{static_cast<std::uint32_t>(next - 1)};
        builders.push_back(station("St" + std::to_string(i), to,
                                   tok(i, next), tok(prev, i)));
        // Station 1 additionally owns token injection.
        if (i == 1)
            builders.back().external("inject1", "idle", "inject", "created",
                                     "has");
    }

    std::vector<fsm> machines;
    machines.reserve(n);
    for (fsm_builder& b : builders) machines.push_back(b.build("idle"));
    system sys("token_ring" + std::to_string(n), std::move(symbols),
               std::move(machines));
    validate_structure(sys);
    return sys;
}

system sliding_window(std::size_t m) {
    detail::require(m >= 2, "sliding_window: need modulus >= 2");

    symbol_table symbols;
    const machine_id S{0}, R{1};
    auto num = [](std::string_view stem, std::size_t k) {
        return std::string(stem) + std::to_string(k);
    };

    // Sender (port P1): 'send'/'retry' are local commands emitting the
    // current sequence number; the matching ack advances the window, every
    // other ack is stale and ignored.
    fsm_builder s("S", symbols);
    for (std::size_t k = 0; k < m; ++k) {
        const std::string idle_k = num("idle", k);
        const std::string sent_k = num("sent", k);
        s.internal(num("s_send", k), idle_k, "send", num("d", k), sent_k, R);
        s.internal(num("s_retry", k), sent_k, "retry", num("d", k), sent_k,
                   R);
        s.external(num("s_ack", k), sent_k, num("a", k), "ok",
                   num("idle", (k + 1) % m));
        for (std::size_t j = 0; j < m; ++j) {
            if (j == k) continue;
            s.external("s_stale" + std::to_string(k) + "_" +
                           std::to_string(j),
                       sent_k, num("a", j), "ign", sent_k);
        }
    }

    // Receiver (port P2): the expected number is delivered and advances the
    // window, everything else is a duplicate; 'ackreq' acknowledges the
    // last delivered number.
    fsm_builder r("R", symbols);
    for (std::size_t k = 0; k < m; ++k) {
        const std::string exp_k = num("exp", k);
        r.external(num("r_recv", k), exp_k, num("d", k), num("del", k),
                   num("exp", (k + 1) % m));
        for (std::size_t j = 0; j < m; ++j) {
            if (j == k) continue;
            r.external("r_dup" + std::to_string(k) + "_" +
                           std::to_string(j),
                       exp_k, num("d", j), "dup", exp_k);
        }
        r.internal(num("r_ack", k), exp_k, "ackreq",
                   num("a", (k + m - 1) % m), exp_k, S);
    }

    std::vector<fsm> machines;
    machines.push_back(s.build("idle0"));
    machines.push_back(r.build("exp0"));
    system sys("sliding_window" + std::to_string(m), std::move(symbols),
               std::move(machines));
    validate_structure(sys);
    return sys;
}

system rtos_round_robin(std::size_t n) {
    detail::require(n >= 1, "rtos_round_robin: need at least 1 task");

    symbol_table symbols;
    const machine_id SCHED{0};

    // Scheduler (port P1): 'tick<j>' dispatches round slot j and advances
    // the round (each slot has its own command — an internal input symbol
    // must always send to the same destination machine, the model's IIO
    // partition rule); each task's completion ack is logged in any
    // scheduler state; 'qstate' reports the head of the round.
    fsm_builder s("Sched", symbols);
    for (std::size_t j = 0; j < n; ++j) {
        const std::string q_j = "q" + std::to_string(j);
        s.internal("dispatch" + std::to_string(j), q_j,
                   "tick" + std::to_string(j), "go" + std::to_string(j),
                   "q" + std::to_string((j + 1) % n),
                   machine_id{static_cast<std::uint32_t>(j + 1)});
        for (std::size_t i = 0; i < n; ++i)
            s.external("log" + std::to_string(j) + "_" + std::to_string(i),
                       q_j, "ack" + std::to_string(i),
                       "logged" + std::to_string(i), q_j);
        s.external("qs" + std::to_string(j), q_j, "qstate",
                   "at" + std::to_string(j), q_j);
    }

    // Task i (port P(i+2)): dispatched by go<i>, re-dispatch while busy is
    // an overrun, 'done' is the local completion command acknowledging to
    // the scheduler.
    std::vector<fsm_builder> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string id = std::to_string(i);
        fsm_builder t("T" + id, symbols);
        t.external("start" + id, "idle", "go" + id, "started", "busy");
        t.external("overrun" + id, "busy", "go" + id, "overrun", "busy");
        t.internal("done" + id, "busy", "done", "ack" + id, "idle", SCHED);
        t.external("qt_idle" + id, "idle", "qtask", "is_idle", "idle");
        t.external("qt_busy" + id, "busy", "qtask", "is_busy", "busy");
        tasks.push_back(std::move(t));
    }

    std::vector<fsm> machines;
    machines.reserve(n + 1);
    machines.push_back(s.build("q0"));
    for (fsm_builder& t : tasks) machines.push_back(t.build("idle"));
    system sys("rtos_round_robin" + std::to_string(n), std::move(symbols),
               std::move(machines));
    validate_structure(sys);
    return sys;
}

std::vector<std::pair<std::string, system>> zoo_models() {
    std::vector<std::pair<std::string, system>> out;
    out.emplace_back("token_ring5", token_ring(5));
    out.emplace_back("sliding_window4", sliding_window(4));
    out.emplace_back("sliding_window8", sliding_window(8));
    out.emplace_back("rtos_round_robin3", rtos_round_robin(3));
    return out;
}

}  // namespace cfsmdiag::models
