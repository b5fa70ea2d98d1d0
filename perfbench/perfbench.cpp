// cfsmdiag's end-to-end benchmark: runs one workload for a fixed time as a
// closed loop, checks every verdict against the recorded per-fault digests,
// and prints one JSON result line.  perfbench/run.py builds this binary and
// forwards the benchmark's arguments; README.md documents the workloads,
// the metrics and which layer should move which metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --digests <dir> [--trace-out <file>] [--jobs <n>]
//   perfbench --record-digests <dir>
//
// Every layer is measured from outside: the benchmark times its own calls
// into the public API (transition_tour, enumerate_all_faults, the
// spec_context constructor, campaign_engine::run, diagnose) and reads the
// stage times and counters the library already returns (stage_timings,
// campaign_metrics and the thread-local counters).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cfsmdiag.hpp"

namespace {

using namespace cfsmdiag;
using system = cfsmdiag::system;  // not ::system from <cstdlib>
using steady = std::chrono::steady_clock;

double secs(steady::time_point a, steady::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
/// of the process that forked this one (run.py's Python) across exec.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0.0;
}

double current_rss_mib() {
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    std::size_t resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- host speed -------------------------------------------------------------

/// Least time of the CPU probe on the host the benchmark was tuned on, when
/// no other tenant slowed it.  Only its constancy matters: it fixes the
/// scale that time metrics are reported in (see README.md).
constexpr double probe_reference_s = 0.0045;

volatile std::uint64_t probe_sink;

/// Least time of a few runs of a fixed register-only loop.  It reads
/// nothing of cfsmdiag and no memory, so its time follows only the speed
/// the host gives this vCPU: its clock and the share of its core that a
/// sibling thread takes.
double cpu_probe_s() {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = steady::now();
        std::uint64_t x = 88172645463325252ull;
        std::uint64_t acc = 0;
        for (int i = 0; i < 2'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x * 0x9E3779B97F4A7C15ull;
        }
        probe_sink = acc;
        best = std::min(best, secs(t0, steady::now()));
    }
    return best;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

// --- workloads --------------------------------------------------------------

enum class mode : std::uint8_t {
    cold,      ///< fresh spec_context + campaign_engine per pass
    warm,      ///< one context whose caches an untimed full pass filled
    one_shot,  ///< diagnose(spec, suite, iut) per fault, nothing shared
};

struct workload {
    const char* name;
    const char* model;     ///< zoo model, as reported in provenance
    const char* universe;  ///< digest file stem
    system (*make)();
    std::size_t jobs;
    mode kind;
    std::size_t sample;  ///< sample of the universe; 0 = all faults
    bool seeded;         ///< the seed picks the sample (else it is fixed)
    /// Set-ups in a batch.  A batch runs before the first pass and after
    /// every pass; setup_s is the median of the batches' least times.
    int setup_reps;
    /// Faults left out of the sample, by describe().  See README.md.
    std::vector<std::string> excluded;
};

system sliding_window7() { return models::sliding_window(7); }
system token_ring66() { return models::token_ring(66); }

const std::array<workload, 4> workloads{{
    {"campaign_cold", "sliding_window(7)", "sliding_window7", sliding_window7,
     1, mode::cold, 0, false, 7, {}},
    {"campaign_warm", "sliding_window(7)", "sliding_window7", sliding_window7,
     1, mode::warm, 0, false, 7, {}},
    {"one_shot", "sliding_window(7)", "sliding_window7", sliding_window7, 1,
     mode::one_shot, 1000, true, 7, {}},
    // The sample is fixed: fault cost ramps from 1 to 30 ms along the ring
    // and few faults need Step 6 inputs, so seeded samples moved p50 and
    // additional_inputs_per_detected by a quarter.  The five faults left
    // out need one Step 6 search of 10-12 s on the reference path (the
    // campaign memo shares it among them); a sample holding any of them
    // would time that one search instead of the workload.
    {"wide_ring", "token_ring(66)", "token_ring66", token_ring66, 1,
     mode::cold, 300, false, 1,
     {"St2.recv_St2: transfer fault, next state idle instead of has",
      "St2.pass_St2: transfer fault, next state has instead of idle",
      "St3.pass_St3: transfer fault, next state has instead of idle",
      "St3.qh_St3: transfer fault, next state idle instead of has",
      "St2.dup_St2: output fault (got instead of dup_err) and transfer "
      "fault (next state idle instead of has)"}},
}};

/// Packed state width of a system: the bits the compiled core would need,
/// an input property (diag/compiled.cpp packs ≤ 64 bits).
std::size_t packed_width(const system& spec) {
    std::size_t bits = 0;
    for (const fsm& m : spec.machines()) {
        const std::size_t states = m.state_count();
        bits += states <= 1 ? 1 : std::bit_width(states - 1);
    }
    return bits;
}

// --- verdict digests --------------------------------------------------------

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Digest of one entry's verdict: every campaign_entry field except the
/// `replays` work counter, so a change that replays less still matches.
std::uint32_t entry_digest(const system& spec, campaign_entry e) {
    e.replays = 0;
    const std::uint64_t h = fnv1a(campaign_entry_to_json(spec, e).dump());
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

bool failed(const campaign_entry& e) {
    return e.errored || e.timed_out ||
           e.outcome == diagnosis_outcome::inconclusive_resource ||
           e.outcome == diagnosis_outcome::no_consistent_hypothesis ||
           (e.detected && !e.sound);
}

std::string digest_path(const std::string& dir, const workload& w) {
    return dir + "/" + w.universe + ".txt";
}

std::vector<std::uint32_t> load_digests(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read digests: " + path);
    std::vector<std::uint32_t> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        out.push_back(static_cast<std::uint32_t>(std::stoul(line, nullptr, 16)));
    }
    return out;
}

// --- tracing ----------------------------------------------------------------

/// In-memory spans, written out once the run ends.  A span has a name,
/// start and end (seconds since the run's epoch), a parent span and the
/// universe index of the fault it belongs to (-1 when none), plus the
/// counters read at its boundaries.
class tracer {
  public:
    explicit tracer(steady::time_point epoch) : epoch_(epoch) {}

    std::int64_t add(std::string name, steady::time_point start,
                     steady::time_point end, std::int64_t parent = -1,
                     std::int64_t fault = -1) {
        spans_.push_back({std::move(name), secs(epoch_, start),
                          secs(epoch_, end), parent, fault, {}});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /// Child spans for stage times that the library reports only as
    /// durations: laid out back to back in pipeline order from `start`.
    void add_stages(const stage_timings& st, steady::time_point start,
                    std::int64_t parent, std::int64_t fault) {
        const std::pair<const char*, double> stages[] = {
            {"diag.step1_3", st.symptoms},   {"diag.step4", st.conflicts},
            {"diag.step5a", st.candidates},  {"diag.step5bc", st.evaluation},
            {"diag.step6", st.discrimination}};
        auto at = start;
        for (const auto& [name, d] : stages) {
            const auto end = at + std::chrono::duration_cast<steady::duration>(
                                      std::chrono::duration<double>(d));
            add(name, at, end, parent, fault);
            at = end;
        }
    }

    void count(std::int64_t span, std::string name, double value) {
        spans_[static_cast<std::size_t>(span)].counts.emplace_back(
            std::move(name), value);
    }

    void write(const std::string& path) const {
        json_value root = json_value::array();
        for (const span& s : spans_) {
            json_value row = json_value::object();
            row.set("name", json_value::string(s.name));
            row.set("start_s", json_value::number(s.start_s));
            row.set("end_s", json_value::number(s.end_s));
            row.set("parent", json_value::number(s.parent));
            row.set("fault", json_value::number(s.fault));
            if (!s.counts.empty()) {
                json_value counts = json_value::object();
                for (const auto& [k, v] : s.counts)
                    counts.set(k, json_value::number(v));
                row.set("counts", std::move(counts));
            }
            root.push(std::move(row));
        }
        std::ofstream out(path);
        out << root.dump() << "\n";
    }

  private:
    struct span {
        std::string name;
        double start_s;
        double end_s;
        std::int64_t parent;
        std::int64_t fault;
        std::vector<std::pair<std::string, double>> counts;
    };
    steady::time_point epoch_;
    std::vector<span> spans_;
};

// --- set-up -----------------------------------------------------------------

struct setup_times {
    double tour_s = 0.0;
    double enumerate_s = 0.0;
    double context_s = 0.0;
    [[nodiscard]] double total() const {
        return tour_s + enumerate_s + context_s;
    }
};

/// What `cfsmdiag campaign` does before run(): tour suite, fault universe,
/// compiled context.  Repeated `reps` times back to back; the last result
/// is kept.
struct prepared {
    test_suite suite;
    std::vector<single_transition_fault> faults;
    std::unique_ptr<spec_context> ctx;
    std::vector<setup_times> times;

    /// The batch's least set-up time: the one the host slowed least.
    [[nodiscard]] double fastest() const {
        double best = 1e300;
        for (const setup_times& t : times) best = std::min(best, t.total());
        return best;
    }
};

prepared set_up(const system& spec, int reps, tracer* tr) {
    prepared p;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = steady::now();
        tour_result tour = transition_tour(spec);
        const auto t1 = steady::now();
        std::vector<single_transition_fault> faults = enumerate_all_faults(spec);
        const auto t2 = steady::now();
        auto ctx = std::make_unique<spec_context>(spec, tour.suite);
        const auto t3 = steady::now();
        p.times.push_back({secs(t0, t1), secs(t1, t2), secs(t2, t3)});
        if (tr) {
            const std::int64_t s = tr->add("setup", t0, t3);
            tr->add("testgen::transition_tour", t0, t1, s);
            tr->add("fault::enumerate_all_faults", t1, t2, s);
            const std::int64_t c = tr->add("diag::spec_context", t2, t3, s);
            tr->count(c, "trace_steps",
                      static_cast<double>(ctx->trace_steps()));
        }
        p.suite = std::move(tour.suite);
        p.faults = std::move(faults);
        p.ctx = std::move(ctx);
    }
    return p;
}

// --- passes -----------------------------------------------------------------

/// One timed sweep over the workload's fault list.
struct pass_out {
    bool traced = false;
    double wall_s = 0.0;  ///< run() wall, or summed diagnose() calls
    double outside_s = 0.0;  ///< part of wall_s outside every fault's latency
    std::vector<double> latency_s;
    std::size_t faults = 0;
    std::size_t failed = 0;
    std::size_t mismatched = 0;
    std::size_t unsound = 0;
    std::size_t detected = 0;
    std::size_t additional_inputs = 0;
    std::size_t memo_misses = 0;
    std::uint64_t verdicts = 0xcbf29ce484222325ull;  ///< digest of digests
    std::map<std::string, double> layer;             ///< traced passes only
};

struct pass_input {
    const workload* w;
    const system* spec;
    const prepared* p;
    const std::vector<std::size_t>* pick;  ///< universe indices, in order
    const std::vector<std::uint32_t>* expected;  ///< empty when recording
    std::vector<std::uint32_t>* recorded;        ///< non-null when recording
};

void score(pass_out& out, const pass_input& in, std::size_t universe_index,
           const campaign_entry& e) {
    ++out.faults;
    const std::uint32_t got = entry_digest(*in.spec, e);
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", got);
    out.verdicts = fnv1a(hex, out.verdicts);
    if (in.recorded) (*in.recorded)[universe_index] = got;
    if (!in.expected->empty() && (*in.expected)[universe_index] != got)
        ++out.mismatched;
    if (e.detected && !e.sound) ++out.unsound;
    if (failed(e)) ++out.failed;
    if (e.detected) {
        ++out.detected;
        out.additional_inputs += e.additional_inputs;
    }
}

/// Per-fault start (fault_hook, on the worker) and merge (observer) times.
class fault_clock final : public campaign_observer {
  public:
    explicit fault_clock(std::size_t n) : start(n), done(n), worker(n) {}

    void on_fault_done(std::size_t index, const campaign_entry&) override {
        done[index] = steady::now();
    }

    /// A fault's latency runs from its fault_hook call until its entry is
    /// merged or its worker claims the next fault, whichever comes first
    /// (with jobs > 1 the in-order merge can hold an entry back).
    [[nodiscard]] std::vector<double> latencies() const {
        const std::size_t n = start.size();
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return worker[a] != worker[b] ? worker[a] < worker[b]
                                          : start[a] < start[b];
        });
        std::vector<double> out(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = order[k];
            auto end = done[i];
            if (k + 1 < n && worker[order[k + 1]] == worker[i])
                end = std::min(end, start[order[k + 1]]);
            out[i] = secs(start[i], end);
        }
        return out;
    }

    std::vector<steady::time_point> start;
    std::vector<steady::time_point> done;
    std::vector<std::thread::id> worker;
};

void discrim_layer(std::map<std::string, double>& L, std::size_t joint,
                   std::size_t bfs, std::size_t hits, std::size_t misses,
                   std::size_t tables) {
    L["diag.step6.joint_states"] = static_cast<double>(joint);
    L["diag.step6.bfs_searches"] = static_cast<double>(bfs);
    L["diag.step6.memo_hits"] = static_cast<double>(hits);
    L["diag.step6.memo_misses"] = static_cast<double>(misses);
    L["diag.step6.memo_hit_ratio"] =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    L["diag.step6.table_answers"] = static_cast<double>(tables);
    L["diag.step6.table_answer_ratio"] =
        misses ? static_cast<double>(tables) / static_cast<double>(misses)
               : 0.0;
}

void stage_layer(std::map<std::string, double>& L, const stage_timings& st) {
    L["diag.step1_3_s"] = st.symptoms;
    L["diag.step4_s"] = st.conflicts;
    L["diag.step5a_s"] = st.candidates;
    L["diag.step5bc_s"] = st.evaluation;
    L["diag.step6_s"] = st.discrimination;
}

/// A campaign over the picked faults.  `shared` is the warm context; cold
/// passes build a fresh one (empty memo, empty pairwise tables).
pass_out campaign_pass(const pass_input& in, const spec_context* shared,
                       double shared_context_s, tracer* tr) {
    pass_out out;
    out.traced = tr != nullptr;
    const auto c0 = steady::now();
    std::unique_ptr<spec_context> fresh;
    if (!shared) fresh = std::make_unique<spec_context>(*in.spec, in.p->suite);
    const auto c1 = steady::now();
    const spec_context& ctx = shared ? *shared : *fresh;

    std::vector<single_transition_fault> faults;
    faults.reserve(in.pick->size());
    for (const std::size_t k : *in.pick) faults.push_back(in.p->faults[k]);
    const std::size_t n = faults.size();

    fault_clock clk(n);
    campaign_options options;
    options.jobs = in.w->jobs;
    options.fault_hook = [&clk](std::size_t i) {
        clk.start[i] = steady::now();
        clk.worker[i] = std::this_thread::get_id();
    };
    campaign_engine engine(ctx, std::move(faults), options);
    engine.attach(clk);

    const double rss0 = current_rss_mib();
    const auto t0 = steady::now();
    const campaign_stats& stats = engine.run();
    const auto t1 = steady::now();
    const double rss1 = current_rss_mib();

    out.wall_s = secs(t0, t1);
    out.latency_s = clk.latencies();
    double fault_s = 0.0;
    for (const double l : out.latency_s) fault_s += l;
    out.outside_s = std::max(0.0, out.wall_s - fault_s);
    for (std::size_t i = 0; i < n; ++i)
        score(out, in, (*in.pick)[i], stats.entries[i]);
    const campaign_metrics& m = engine.metrics();
    out.memo_misses = m.discrim_memo_misses;
    if (!tr) return out;

    if (fresh) tr->add("diag::spec_context", c0, c1);
    const std::int64_t run = tr->add("campaign_engine::run", t0, t1);
    for (std::size_t i = 0; i < n; ++i) {
        const auto end = clk.start[i] +
                         std::chrono::duration_cast<steady::duration>(
                             std::chrono::duration<double>(out.latency_s[i]));
        tr->add("fault", clk.start[i], end, run,
                static_cast<std::int64_t>((*in.pick)[i]));
    }
    // The engine returns stage times summed over faults and workers, so
    // they hang off the run span rather than off single faults.
    tr->add_stages(m.stage, t0, run, -1);
    tr->count(run, "replays", static_cast<double>(m.replays));
    tr->count(run, "simulated_steps", static_cast<double>(m.simulated_steps));
    tr->count(run, "oracle_inputs", static_cast<double>(m.oracle_inputs));
    tr->count(run, "discrim_memo_misses",
              static_cast<double>(m.discrim_memo_misses));

    auto& L = out.layer;
    L["diag.context_s"] = fresh ? secs(c0, c1) : shared_context_s;
    L["diag.context_trace_steps"] = static_cast<double>(ctx.trace_steps());
    stage_layer(L, m.stage);
    // run() adds the context's Step-1 trace steps once per call; they are
    // the context's cost, reported above.
    L["diag.simulated_steps"] =
        static_cast<double>(m.simulated_steps - ctx.trace_steps());
    L["diag.replays"] = static_cast<double>(m.replays);
    L["diag.replay_case_skips"] = static_cast<double>(m.cache_case_skips);
    L["diag.replay_suffix_replays"] =
        static_cast<double>(m.cache_suffix_replays);
    L["diag.step6.additional_tests"] = static_cast<double>(m.additional_tests);
    discrim_layer(L, m.discrim_joint_states, m.discrim_bfs_searches,
                  m.discrim_memo_hits, m.discrim_memo_misses,
                  m.discrim_table_answers);
    L["fault.iut_executions"] = static_cast<double>(m.oracle_executions);
    L["fault.iut_inputs"] = static_cast<double>(m.oracle_inputs);
    L["gen.scoring_s"] = m.wall_scoring;
    L["gen.outside_s"] = fault_s - m.stage.total() - m.wall_scoring;
    L["gen.rss_growth_mb"] = rss1 - rss0;
    return out;
}

/// The engine's scoring rule: the truth, or a hypothesis observationally
/// equivalent to it, is among the final diagnoses.
bool truth_among(const system& spec, const single_transition_fault& truth,
                 const std::vector<diagnosis>& finals) {
    if (std::find(finals.begin(), finals.end(), truth) != finals.end())
        return true;
    return std::any_of(finals.begin(), finals.end(), [&](const diagnosis& d) {
        return observationally_equivalent(spec, truth, d);
    });
}

/// `cfsmdiag diagnose` per fault: each call builds its own context.
pass_out one_shot_pass(const pass_input& in, tracer* tr) {
    pass_out out;
    out.traced = tr != nullptr;
    const system& spec = *in.spec;
    const std::size_t trace_steps = in.p->ctx->trace_steps();
    stage_timings stages;
    double scoring_s = 0.0;
    double context_s = 0.0;
    double self_s = 0.0;
    std::size_t replays = 0, steps = 0, skips = 0, suffix = 0;
    std::size_t executions = 0, inputs = 0, tests = 0;
    discrim_counters dsum;
    const double rss0 = current_rss_mib();

    for (const std::size_t k : *in.pick) {
        const single_transition_fault& fault = in.p->faults[k];
        simulated_iut iut(spec, fault);
        if (tr) {
            // The overload hides its context build; time an identical one
            // beside it so diag.context_s is measured, not inferred.
            const auto c0 = steady::now();
            const spec_context probe(spec, in.p->suite);
            context_s += secs(c0, steady::now());
        }
        const std::size_t r0 = hypothesis_replays();
        const std::size_t s0 = simulated_steps();
        const std::size_t k0 = replay_cache_case_skips();
        const std::size_t x0 = replay_cache_suffix_replays();
        const discrim_counters d0 = discrim_totals();

        campaign_entry e;
        e.fault = fault;
        diagnosis_result r;
        const auto t0 = steady::now();
        try {
            r = diagnose(spec, in.p->suite, iut);
        } catch (const std::exception& ex) {
            e.errored = true;
            e.error_kind = "exception";
            e.error_message = ex.what();
        }
        const auto t1 = steady::now();
        const double call_s = secs(t0, t1);
        const std::size_t call_steps = simulated_steps() - s0;
        const std::size_t call_skips = replay_cache_case_skips() - k0;
        const std::size_t call_suffix = replay_cache_suffix_replays() - x0;
        const discrim_counters d1 = discrim_totals();

        e.replays = hypothesis_replays() - r0;
        e.oracle_executions = iut.executions();
        e.oracle_inputs = iut.inputs_applied();
        if (!e.errored) {
            e.outcome = r.outcome;
            e.detected =
                r.outcome != diagnosis_outcome::passed &&
                r.outcome != diagnosis_outcome::inconclusive_unreliable &&
                r.outcome != diagnosis_outcome::inconclusive_resource;
            e.initial_diagnoses = r.initial_diagnoses.size();
            e.final_diagnoses = r.final_diagnoses.size();
            e.additional_tests = r.additional_tests.size();
            e.additional_inputs = r.additional_inputs();
            e.escalated = r.used_escalation;
            e.used_fallback = r.used_fallback_search;
            e.retries = r.reliability.retries;
            e.transient_failures = r.reliability.transient_failures;
            e.quarantined_cases = r.reliability.quarantined_cases;
            e.quarantined_tests = r.reliability.quarantined_tests;
        }
        const auto s_begin = steady::now();
        if (e.detected) e.sound = truth_among(spec, fault, r.final_diagnoses);
        scoring_s += secs(s_begin, steady::now());

        out.wall_s += call_s;
        out.latency_s.push_back(call_s);
        score(out, in, k, e);

        out.memo_misses += d1.memo_misses - d0.memo_misses;
        if (!tr) continue;
        stages += r.timings;
        self_s += call_s - r.timings.total();
        replays += e.replays;
        // Net of the IUT's own execution and of the per-call context's
        // Step-1 replay, as campaign_metrics reports it.
        steps += call_steps - std::min(call_steps, e.oracle_inputs + trace_steps);
        skips += call_skips;
        suffix += call_suffix;
        executions += e.oracle_executions;
        inputs += e.oracle_inputs;
        tests += e.additional_tests;
        dsum.joint_states += d1.joint_states - d0.joint_states;
        dsum.memo_hits += d1.memo_hits - d0.memo_hits;
        dsum.memo_misses += d1.memo_misses - d0.memo_misses;
        dsum.table_answers += d1.table_answers - d0.table_answers;
        dsum.bfs_searches += d1.bfs_searches - d0.bfs_searches;

        const std::int64_t call =
            tr->add("diagnose", t0, t1, -1, static_cast<std::int64_t>(k));
        // Stage times are durations; the context build comes first, so the
        // stages are laid out to end with the call.
        tr->add_stages(r.timings,
                       t1 - std::chrono::duration_cast<steady::duration>(
                                std::chrono::duration<double>(
                                    r.timings.total())),
                       call, static_cast<std::int64_t>(k));
        tr->count(call, "replays", static_cast<double>(e.replays));
        tr->count(call, "oracle_inputs", static_cast<double>(e.oracle_inputs));
    }
    if (!tr) return out;

    auto& L = out.layer;
    L["diag.context_s"] = context_s;
    L["diag.context_trace_steps"] =
        static_cast<double>(trace_steps * in.pick->size());
    stage_layer(L, stages);
    L["diag.simulated_steps"] = static_cast<double>(steps);
    L["diag.replays"] = static_cast<double>(replays);
    L["diag.replay_case_skips"] = static_cast<double>(skips);
    L["diag.replay_suffix_replays"] = static_cast<double>(suffix);
    L["diag.step6.additional_tests"] = static_cast<double>(tests);
    discrim_layer(L, dsum.joint_states, dsum.bfs_searches, dsum.memo_hits,
                  dsum.memo_misses, dsum.table_answers);
    L["fault.iut_executions"] = static_cast<double>(executions);
    L["fault.iut_inputs"] = static_cast<double>(inputs);
    L["gen.scoring_s"] = scoring_s;
    L["gen.outside_s"] = self_s;
    L["gen.rss_growth_mb"] = current_rss_mib() - rss0;
    return out;
}

// --- command line and run ---------------------------------------------------

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string trace_out;
    std::size_t jobs = 0;  ///< overrides the workload's jobs (self-check)
    std::string record;    ///< --record-digests output directory
};

args parse(int argc, char** argv) {
    args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--digests") a.digests = v;
        else if (k == "--trace-out") a.trace_out = v;
        else if (k == "--jobs") a.jobs = std::stoul(v);
        else if (k == "--record-digests") a.record = v;
        else throw std::runtime_error("unknown argument " + k);
    }
    return a;
}

std::vector<std::size_t> pick_faults(
    const workload& w, const system& spec,
    const std::vector<single_transition_fault>& universe, std::uint64_t seed) {
    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < universe.size(); ++i) {
        const std::string d = describe(spec, universe[i]);
        if (std::find(w.excluded.begin(), w.excluded.end(), d) ==
            w.excluded.end())
            all.push_back(i);
    }
    if (all.size() + w.excluded.size() != universe.size())
        throw std::runtime_error("excluded faults not found in the universe");
    if (w.sample == 0 || w.sample >= all.size()) return all;
    // Systematic sample: one fault from each of `sample` equal runs of the
    // enumeration order, which groups faults by transition, at a seeded
    // offset (or the middle of each run).  Costly transitions then weigh
    // the same in every sample, so the seed changes the faults but hardly
    // the work.
    rng random(seed);
    const double offset =
        w.seeded ? static_cast<double>(random.next() >> 11) * 0x1.0p-53 : 0.5;
    const double step = static_cast<double>(all.size()) /
                        static_cast<double>(w.sample);
    std::vector<std::size_t> picked(w.sample);
    for (std::size_t i = 0; i < w.sample; ++i)
        picked[i] = all[static_cast<std::size_t>(
            (static_cast<double>(i) + offset) * step)];
    return picked;
}

/// Runs every universe once as a jobs = 4 cold campaign and writes its
/// per-fault digests (one 8-hex line per fault, in enumeration order).
int record_digests(const std::string& dir) {
    for (const workload& w : workloads) {
        const std::string path = digest_path(dir, w);
        if (std::ifstream(path)) continue;  // shared universe, done already
        const system spec = w.make();
        const prepared p = set_up(spec, 1, nullptr);
        std::vector<std::size_t> all(p.faults.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        std::vector<std::uint32_t> recorded(all.size());
        const std::vector<std::uint32_t> none;
        workload full = w;
        full.jobs = 4;
        const pass_input in{&full, &spec, &p, &all, &none, &recorded};
        const pass_out out = campaign_pass(in, nullptr, 0.0, nullptr);
        std::ofstream f(path);
        f << "# cfsmdiag verdict digests: " << w.model << ", "
          << p.faults.size() << " faults in enumerate_all_faults order\n";
        for (const std::uint32_t d : recorded) {
            char hex[16];
            std::snprintf(hex, sizeof hex, "%08x", d);
            f << hex << "\n";
        }
        std::vector<std::size_t> slow(all);
        std::sort(slow.begin(), slow.end(), [&](std::size_t a, std::size_t b) {
            return out.latency_s[a] > out.latency_s[b];
        });
        std::cerr << w.model << ": " << p.faults.size() << " faults, "
                  << out.failed << " failed, " << out.wall_s << " s\n";
        for (std::size_t i = 0; i < std::min<std::size_t>(5, slow.size()); ++i)
            std::cerr << "  " << out.latency_s[slow[i]] << " s  #" << slow[i]
                      << " " << describe(spec, p.faults[slow[i]]) << "\n";
    }
    return 0;
}

int run(const args& a) {
    const workload* found = nullptr;
    for (const workload& w : workloads)
        if (a.workload == w.name) found = &w;
    if (!found) throw std::runtime_error("unknown workload " + a.workload);
    workload w = *found;
    if (a.jobs) w.jobs = a.jobs;
    const auto epoch = steady::now();
    std::optional<tracer> tr;
    if (a.trace) tr.emplace(epoch);

    const system spec = w.make();
    const std::vector<std::uint32_t> expected =
        load_digests(digest_path(a.digests, w));
    const prepared p = set_up(spec, w.setup_reps, tr ? &*tr : nullptr);
    std::vector<setup_times> setups = p.times;
    std::vector<double> setup_batches{p.fastest()};
    if (expected.size() != p.faults.size())
        throw std::runtime_error("digest file does not match the universe");
    const std::vector<std::size_t> pick = pick_faults(w, spec, p.faults, a.seed);
    const pass_input in{&w, &spec, &p, &pick, &expected, nullptr};

    // Warm: an untimed full pass fills the context's caches first.  It runs
    // at the workload's one job, so the caches are laid out in memory the
    // same way in every run.
    double warm_context_s = 0.0;
    std::size_t fill_misses = 0;
    std::unique_ptr<spec_context> warm;
    if (w.kind == mode::warm) {
        const auto c0 = steady::now();
        warm = std::make_unique<spec_context>(spec, p.suite);
        warm_context_s = secs(c0, steady::now());
        fill_misses = campaign_pass(in, warm.get(), 0.0, nullptr).memo_misses;
    }

    // Closed loop: passes back to back until the run, set-up and warm-up
    // included, would end further from --seconds with one more pass than
    // without it.  An untraced run makes at least four passes: a fault's
    // least latency over three was visibly less steady.  A traced run
    // alternates untraced and traced passes so the tracing overhead is
    // measured within one process.
    std::vector<pass_out> passes;
    const std::size_t min_passes = a.trace ? 2 : 4;
    double probe_s = cpu_probe_s();
    const auto begin = steady::now();
    for (std::size_t k = 0;; ++k) {
        tracer* t = a.trace && k % 2 == 1 ? &*tr : nullptr;
        passes.push_back(w.kind == mode::one_shot
                             ? one_shot_pass(in, t)
                             : campaign_pass(in, warm.get(), warm_context_s, t));
        // Set-up batches recur between passes, so their median samples the
        // whole run rather than its first milliseconds.
        const prepared again = set_up(spec, w.setup_reps, tr ? &*tr : nullptr);
        setups.insert(setups.end(), again.times.begin(), again.times.end());
        setup_batches.push_back(again.fastest());
        probe_s = std::min(probe_s, cpu_probe_s());
        const auto now = steady::now();
        const double per_pass =
            secs(begin, now) / static_cast<double>(passes.size());
        if (passes.size() >= min_passes &&
            secs(epoch, now) + per_pass / 2 > a.seconds)
            break;
    }

    std::size_t attempted = 0, failures = 0, mismatched = 0, unsound = 0;
    std::vector<double> walls_plain, walls_traced;
    // A fault does the same work in every pass (one worker, same order), so
    // its latency is its least over the passes: the host's slow spells only
    // ever add to it.  The same holds for the pass's time outside the
    // faults, so the fastest pass is assembled from both.
    std::vector<double> fastest(pick.size(), 1e300);
    double fastest_outside = 1e300;
    for (const pass_out& o : passes) {
        attempted += o.faults;
        failures += o.failed;
        mismatched += o.mismatched;
        unsound += o.unsound;
        (o.traced ? walls_traced : walls_plain).push_back(o.wall_s);
        if (o.traced) continue;
        fastest_outside = std::min(fastest_outside, o.outside_s);
        for (std::size_t i = 0; i < fastest.size(); ++i)
            fastest[i] = std::min(fastest[i], o.latency_s[i]);
    }
    double fastest_pass_s = fastest_outside;
    for (const double l : fastest) fastest_pass_s += l;
    // Least latencies drop the host's short spells; scaling by the CPU
    // probe drops its slow minutes, when every pass runs on a slower vCPU.
    // A time t is reported as t * host_scale, in seconds of the reference
    // host (README.md).
    const double host_scale = probe_reference_s / probe_s;
    const pass_out& first = passes.front();
    std::vector<double> tour_s, enum_s;
    for (const setup_times& t : setups) {
        tour_s.push_back(t.tour_s);
        enum_s.push_back(t.enumerate_s);
    }

    // Provenance: every published number traces back to this line.
    json_value prov = json_value::object();
    prov.set("build_type", json_value::string(PERFBENCH_BUILD_TYPE));
    prov.set("compiler", json_value::string(PERFBENCH_COMPILER));
    prov.set("nproc", json_value::number(static_cast<std::size_t>(
                          std::thread::hardware_concurrency())));
    prov.set("workload", json_value::string(w.name));
    prov.set("trace", json_value::boolean(a.trace));
    prov.set("jobs", json_value::number(w.jobs));
    prov.set("seed", json_value::number(static_cast<std::size_t>(a.seed)));
    prov.set("model", json_value::string(w.model));
    prov.set("universe_faults", json_value::number(p.faults.size()));
    prov.set("faults_per_pass", json_value::number(pick.size()));
    prov.set("passes", json_value::number(passes.size()));
    prov.set("setup_reps", json_value::number(setups.size()));
    prov.set("cpu_probe_s", json_value::number(probe_s));
    prov.set("host_scale", json_value::number(host_scale));
    std::cout << "provenance " << prov.dump() << "\n";

    // Facts about the inputs and the paths taken, not assertions.
    json_value facts = json_value::object();
    facts.set("packed_state_bits", json_value::number(packed_width(spec)));
    facts.set("packable", json_value::boolean(p.ctx->compiled().packable));
    facts.set("machines", json_value::number(spec.machine_count()));
    facts.set("suite_cases", json_value::number(p.suite.size()));
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(first.verdicts));
    facts.set("verdict_digest", json_value::string(hex));
    facts.set("detected", json_value::number(first.detected));
    facts.set("timed_pass_memo_misses", json_value::number(first.memo_misses));
    if (w.kind == mode::warm)
        facts.set("fill_pass_memo_misses", json_value::number(fill_misses));
    facts.set("shares_context", json_value::boolean(w.kind != mode::one_shot));
    std::cout << "facts " << facts.dump() << "\n";

    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    if (!a.trace) {
        const double ms = 1e3 * host_scale;
        metrics = {
            {"setup_s", {median(setup_batches) * host_scale, "s"}},
            {"faults_per_s",
             {static_cast<double>(pick.size()) / (fastest_pass_s * host_scale),
              "1/s"}},
            {"fault_p50_ms", {percentile(fastest, 0.50) * ms, "ms"}},
            {"fault_p99_ms", {percentile(fastest, 0.99) * ms, "ms"}},
            {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
            {"additional_inputs_per_detected",
             {first.detected ? static_cast<double>(first.additional_inputs) /
                                   static_cast<double>(first.detected)
                             : 0.0,
              "inputs"}},
        };
    } else {
        std::map<std::string, std::vector<double>> samples;
        for (const pass_out& o : passes)
            for (const auto& [k, v] : o.layer) samples[k].push_back(v);
        metrics.push_back(
            {"testgen.tour_s", {median(tour_s) * host_scale, "s"}});
        metrics.push_back(
            {"fault.enumerate_s", {median(enum_s) * host_scale, "s"}});
        for (const auto& [k, v] : samples) {
            const bool time = k.ends_with("_s");
            const bool ratio = k.ends_with("_ratio");
            const char* unit = time ? "s"
                               : ratio ? "ratio"
                               : k == "gen.rss_growth_mb" ? "MiB"
                                                          : "count";
            metrics.push_back({k, {median(v) * (time ? host_scale : 1.0), unit}});
        }
        metrics.push_back(
            {"trace.overhead_frac",
             {median(walls_traced) / median(walls_plain) - 1.0, "ratio"}});
        if (!a.trace_out.empty()) tr->write(a.trace_out);
    }

    const bool correct = mismatched == 0 && unsound == 0;
    if (!correct)
        std::cerr << "perfbench: " << mismatched
                  << " verdict digest mismatch(es), " << unsound
                  << " detected-but-unsound fault(s)\n";
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failures
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line << (i ? ", " : "") << "\"" << metrics[i].first
             << "\": {\"value\": " << num(metrics[i].second.first)
             << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const args a = parse(argc, argv);
        if (!a.record.empty()) return record_digests(a.record);
        return run(a);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
