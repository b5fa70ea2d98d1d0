#include "diag/diagnosis.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "util/budget.hpp"

namespace cfsmdiag {
namespace {

/// Builds the survivor index lists (Step 5C) over `evaluated`.
void select_survivors(diagnostic_candidates& dc) {
    for (std::size_t i = 0; i < dc.evaluated.size(); ++i) {
        const evaluated_candidate& c = dc.evaluated[i];
        if (c.is_ust) {
            if (!c.outputs.empty() || !c.statout.empty() ||
                !c.end_states.empty())
                dc.ust = i;
            continue;
        }
        if (!c.end_states.empty()) dc.dctr.push_back(i);
        if (!c.outputs.empty() || !c.statout.empty()) dc.dcco.push_back(i);
    }
}

}  // namespace

std::vector<diagnosis> diagnostic_candidates::diagnoses() const {
    std::vector<diagnosis> out;
    for (const evaluated_candidate& c : evaluated) {
        for (state_id s : c.end_states)
            out.push_back({c.id, std::nullopt, s, std::nullopt});
        for (symbol o : c.outputs)
            out.push_back({c.id, o, std::nullopt, std::nullopt});
        for (const auto& [s, o] : c.statout)
            out.push_back({c.id, o, s, std::nullopt});
        for (machine_id d : c.destinations)
            out.push_back({c.id, std::nullopt, std::nullopt, d});
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::string to_string(step6_case c) {
    switch (c) {
        case step6_case::none: return "none";
        case step6_case::case1: return "Case 1";
        case step6_case::case2: return "Case 2";
        case step6_case::case3: return "Case 3";
        case step6_case::case4: return "Case 4";
        case step6_case::case5: return "Case 5";
    }
    return "?";
}

step6_case classify_step6(const diagnostic_candidates& dc) {
    const bool others_empty = dc.dctr.empty() && dc.dcco.empty();
    if (dc.ust) {
        const evaluated_candidate& u = dc.evaluated[*dc.ust];
        if (others_empty) {
            if (u.outputs.size() == 1 && u.statout.empty() &&
                u.end_states.empty())
                return step6_case::case1;
            if (u.statout.size() == 1 && u.outputs.empty() &&
                u.end_states.empty())
                return step6_case::case2;
        }
        return step6_case::case5;
    }
    if (others_empty) return step6_case::none;

    // Count surviving candidates and their hypotheses.
    std::size_t candidates = 0, hypotheses = 0;
    auto tally = [&](std::size_t idx) {
        const evaluated_candidate& c = dc.evaluated[idx];
        ++candidates;
        hypotheses +=
            c.end_states.size() + c.outputs.size() + c.statout.size();
    };
    std::set<std::size_t> seen;
    for (std::size_t i : dc.dctr) {
        if (seen.insert(i).second) tally(i);
    }
    for (std::size_t i : dc.dcco) {
        if (seen.insert(i).second) tally(i);
    }
    if (candidates == 1 && hypotheses == 1) return step6_case::case3;
    return step6_case::case4;
}

namespace {

// --- Step 5B's walks ------------------------------------------------------
// The paper's findendingstates, calouts, processtate&out and the
// addressing extension's destinations enumerate each candidate's
// hypotheses in a fixed order (ascending states, pool order, ascending
// machines).  A walk numbers them in that order, across every candidate of
// one pass, and charges every number one hypothesis replay and one budget
// poll, so a pass counts, polls and throws exactly as a replay of every
// hypothesis would (DESIGN.md §5i).  It replays only the hypotheses that
// can be consistent:
//   - flagged_walk, with a fault dictionary: the flagged ones
//     (flat_replayer::flagged) and those without a dictionary slot; any
//     other hypothesis predicts the suite with a signature other than the
//     report's;
//   - every_walk, without one (or on a report with a quarantined case):
//     every hypothesis, less the columns of next states that one probe
//     step refutes (flat_replayer::refutes_column).
// Each pass is compiled once per walk, so the dictionary's walk carries
// none of the probe's bookkeeping.

/// One class of a candidate's hypotheses as a grid of rows (states, or a
/// single row) by columns (outputs or destinations), numbered row-major
/// with `skip_row` left out.  Columns [0, slotted) of row r have the slots
/// base + r * stride + c; the others have none.
struct hypothesis_grid {
    std::uint32_t rows = 1;
    /// The specified next state, which no hypothesis names.
    std::uint32_t skip_row = invalid_index;
    std::uint32_t cols = 0;
    std::uint32_t slotted = 0;
    std::uint32_t base = 0;
    /// Slot distance between rows; at least `slotted`.
    std::uint32_t stride = 0;

    [[nodiscard]] std::uint64_t size() const noexcept {
        return std::uint64_t{rows - (skip_row < rows ? 1u : 0u)} * cols;
    }
};

/// The numbering and charging both walks share.
class walk_charges {
  public:
    explicit walk_charges(flat_replayer& rep) : rep_(&rep) {}

    /// Charges the hypotheses after the last replayed one: the end of the
    /// pass.
    void finish() {
        charge(first_ - charged_);
        charged_ = first_;
    }

  protected:
    /// Charges hypothesis (r, c) of `g` and the uncharged ones before it,
    /// then replays it; make(r, c) is its override and keep(r, c) takes it
    /// when it is consistent.
    template <typename Make, typename Keep>
    void visit(const hypothesis_grid& g, std::uint32_t r, std::uint32_t c,
               Make& make, Keep& keep) {
        const std::uint64_t n =
            first_ + std::uint64_t{r - (r > g.skip_row ? 1u : 0u)} * g.cols +
            c;
        charge(n + 1 - charged_);
        charged_ = n + 1;
        if (rep_->matches(make(r, c))) keep(r, c);
    }

    /// `n` hypotheses' replays and budget polls.  Polled one at a time, the
    /// first poll past the step quota would throw after counting its
    /// hypothesis; charge(n) throws exactly when that poll is among the n.
    /// One hypothesis is polled, as the per-hypothesis loop polled it.
    static void charge(std::uint64_t n) {
        if (n == 0) return;
        const run_budget* b = detail::current_budget();
        if (!b || n == 1) {
            detail::note_hypothesis_replays(n);
            if (b) b->poll();
            return;
        }
        const std::uint64_t left = b->polls_left();
        detail::note_hypothesis_replays(n > left ? left + 1 : n);
        b->charge(n);
    }

    flat_replayer* rep_;
    std::uint64_t first_ = 0;    ///< the current grid's first number
    std::uint64_t charged_ = 0;  ///< hypotheses charged so far
};

/// The walk of a report the dictionary flags.
class flagged_walk : public walk_charges {
  public:
    flagged_walk(flat_replayer& rep, const std::vector<std::uint32_t>& flagged)
        : walk_charges(rep),
          cursor_(flagged.data()),
          end_(flagged.data() + flagged.size()) {}

    /// Replays grid `g`'s flagged and slot-less hypotheses in order, and
    /// charges those before each.
    template <typename Make, typename Keep>
    void walk(const hypothesis_grid& g, Make make, Keep keep) {
        const auto visit = [&](std::uint32_t r, std::uint32_t c) {
            walk_charges::visit(g, r, c, make, keep);
        };
        // The slot-less columns of the rows before `row`, those of `pending`
        // on: they follow their row's slots.
        std::uint32_t pending = 0;
        const auto slotless_before = [&](std::uint32_t row) {
            if (g.slotted == g.cols) return;
            for (; pending < row; ++pending) {
                if (pending == g.skip_row) continue;
                for (std::uint32_t c = g.slotted; c < g.cols; ++c)
                    visit(pending, c);
            }
        };
        if (g.slotted > 0) {
            const std::uint32_t end =
                g.base + (g.rows - 1) * g.stride + g.slotted;
            std::uint32_t r = 0;
            std::uint32_t row_base = g.base;
            std::uint32_t slot = next_flagged(g.base);
            while (slot < end) {
                while (slot - row_base >= g.stride) {
                    row_base += g.stride;
                    ++r;
                }
                if (r == g.skip_row || slot - row_base >= g.slotted) {
                    slot = next_flagged(row_base + g.stride);
                    continue;
                }
                slotless_before(r);
                visit(r, slot - row_base);
                slot = next_flagged(slot + 1);
            }
        }
        slotless_before(g.rows);
        first_ += g.size();
    }

  private:
    /// The least flagged slot >= `slot`, or invalid_index.  The walk asks
    /// in ascending order, so the cursor only moves forward.
    std::uint32_t next_flagged(std::uint32_t slot) {
        if (cursor_ != end_ && *cursor_ < slot)
            cursor_ = std::lower_bound(cursor_ + 1, end_, slot);
        return cursor_ == end_ ? invalid_index : *cursor_;
    }

    const std::uint32_t* cursor_;
    const std::uint32_t* end_;
};

/// The walk of a report that flags every hypothesis.
class every_walk : public walk_charges {
  public:
    using walk_charges::walk_charges;

    /// Replays grid `g`'s hypotheses in order, and charges those before
    /// each.  When `g` names two next states or more, its rows share each
    /// column's checks up to the target's first firing, so each column is
    /// probed once and the rows replay only the columns the probe leaves.
    template <typename Make, typename Keep>
    void walk(const hypothesis_grid& g, Make make, Keep keep) {
        const bool probed = g.size() > g.cols;
        if (probed) {
            const std::uint32_t row = g.skip_row == 0 ? 1 : 0;
            refuted_.resize(g.cols);
            for (std::uint32_t c = 0; c < g.cols; ++c)
                refuted_[c] = rep_->refutes_column(make(row, c));
        }
        for (std::uint32_t r = 0; r < g.rows; ++r) {
            if (r == g.skip_row) continue;
            for (std::uint32_t c = 0; c < g.cols; ++c) {
                if (!probed || !refuted_[c]) visit(g, r, c, make, keep);
            }
        }
        first_ += g.size();
    }

  private:
    /// The probe's verdict per column of the current grid.
    std::vector<std::uint8_t> refuted_;
};

/// findendingstates: T transfers to each state other than NextState(T).
template <class Walk>
void walk_end_states(Walk& walk, const compiled_spec& cs,
                     evaluated_candidate& c) {
    const std::uint32_t d = cs.dense_id(c.id);
    const hypothesis_grid g{.rows = cs.state_count[c.id.machine.value],
                            .skip_row = cs.next_state[d],
                            .cols = 1,
                            .slotted = 1,
                            .base = cs.transfer_slot(d, 0),
                            .stride = 1};
    walk.walk(
        g,
        [&](std::uint32_t s, std::uint32_t) {
            return transition_override{c.id, std::nullopt, state_id{s}};
        },
        [&](std::uint32_t s, std::uint32_t) {
            c.end_states.push_back(state_id{s});
        });
}

/// calouts over `outs`, whose first `slotted` entries are d's compiled pool
/// entries from `j0` on.  No entry is the specified output
/// (admissible_faulty_outputs leaves it out).
template <class Walk>
void walk_outputs(Walk& walk, const compiled_spec& cs, evaluated_candidate& c,
                  std::span<const symbol> outs, std::uint32_t j0,
                  std::uint32_t slotted) {
    const std::uint32_t d = cs.dense_id(c.id);
    const hypothesis_grid g{.cols = static_cast<std::uint32_t>(outs.size()),
                            .slotted = slotted,
                            .base = slotted ? cs.output_slot(d, j0) : 0,
                            .stride = slotted};
    walk.walk(
        g,
        [&](std::uint32_t, std::uint32_t j) {
            return transition_override{c.id, outs[j], std::nullopt};
        },
        [&](std::uint32_t, std::uint32_t j) { c.outputs.push_back(outs[j]); });
}

/// processtate&out: each state other than NextState(T) with each of
/// `outs`, as walk_outputs has them.
template <class Walk>
void walk_statout(Walk& walk, const compiled_spec& cs, evaluated_candidate& c,
                  std::span<const symbol> outs, std::uint32_t j0,
                  std::uint32_t slotted) {
    const std::uint32_t d = cs.dense_id(c.id);
    const hypothesis_grid g{
        .rows = cs.state_count[c.id.machine.value],
        .skip_row = cs.next_state[d],
        .cols = static_cast<std::uint32_t>(outs.size()),
        .slotted = slotted,
        .base = slotted ? cs.output_slot(d, j0, 0) : 0,
        .stride = cs.pool_offset[d + 1] - cs.pool_offset[d]};
    walk.walk(
        g,
        [&](std::uint32_t s, std::uint32_t j) {
            return transition_override{c.id, outs[j], state_id{s}};
        },
        [&](std::uint32_t s, std::uint32_t j) {
            c.statout.emplace_back(state_id{s}, outs[j]);
        });
}

/// The addressing extension: an internal-output T sends to each machine
/// other than its own and its specified receiver.  No slots.
template <class Walk>
void walk_destinations(Walk& walk, const compiled_spec& cs,
                       evaluated_candidate& c) {
    const std::uint32_t d = cs.dense_id(c.id);
    if (!cs.is_internal[d]) return;
    std::vector<machine_id> dests;
    for (std::uint32_t j = 0; j + 1 < cs.machine_offset.size(); ++j) {
        if (j != c.id.machine.value && j != cs.dest[d])
            dests.push_back(machine_id{j});
    }
    walk.walk(
        {.cols = static_cast<std::uint32_t>(dests.size())},
        [&](std::uint32_t, std::uint32_t j) {
            transition_override ov;
            ov.target = c.id;
            ov.destination = dests[j];
            return ov;
        },
        [&](std::uint32_t, std::uint32_t j) {
            c.destinations.push_back(dests[j]);
        });
}

/// The number of ITC members.
std::size_t itc_size(const candidate_sets& cands) {
    std::size_t n = 0;
    for (const auto& members : cands.itc) n += members.size();
    return n;
}

/// d's compiled admissible-output pool.
std::span<const symbol> pool_of(const compiled_spec& cs, std::uint32_t d) {
    return {cs.pool_syms.data() + cs.pool_offset[d],
            cs.pool_offset[d + 1] - cs.pool_offset[d]};
}

/// evaluate_candidates on `walk`.
template <class Walk>
diagnostic_candidates routed_pass(const compiled_spec& cs, Walk& walk,
                                  const symptom_report& report,
                                  const candidate_sets& cands) {
    diagnostic_candidates dc;
    dc.evaluated.reserve(itc_size(cands));
    const std::uint32_t machines =
        static_cast<std::uint32_t>(cs.machine_offset.size()) - 1;
    for (std::uint32_t m = 0; m < machines; ++m) {
        for (transition_id t : cands.itc[m]) {
            const global_transition_id gid{machine_id{m}, t};
            const std::uint32_t d = cs.dense_id(gid);
            const std::span<const symbol> pool = pool_of(cs, d);
            evaluated_candidate c;
            c.id = gid;
            c.is_ust = cands.ust && *cands.ust == gid;

            if (c.is_ust) {
                // The single observed uso, at its compiled-pool index j; it
                // has no slot when it is outside the pool.
                const symbol& uso = report.uso.output;
                const auto j = static_cast<std::uint32_t>(
                    std::find(pool.begin(), pool.end(), uso) - pool.begin());
                const std::span<const symbol> outs =
                    uso.id == cs.out_sym[d] ? std::span<const symbol>{}
                                            : std::span(&uso, 1);
                const std::uint32_t slotted = j < pool.size() ? 1 : 0;
                if (report.flag) {
                    walk_statout(walk, cs, c, outs, j, slotted);
                } else {
                    walk_outputs(walk, cs, c, outs, j, slotted);
                }
            } else {
                const bool in_ftctr = std::binary_search(
                    cands.ftc_tr[m].begin(), cands.ftc_tr[m].end(), t);
                const bool in_ftcco = std::binary_search(
                    cands.ftc_co[m].begin(), cands.ftc_co[m].end(), t);
                const auto slotted = static_cast<std::uint32_t>(pool.size());
                if (in_ftctr) walk_end_states(walk, cs, c);
                if (in_ftcco && report.flag) {
                    walk_statout(walk, cs, c, pool, 0, slotted);
                } else if (in_ftcco) {
                    walk_outputs(walk, cs, c, pool, 0, slotted);
                }
            }
            dc.evaluated.push_back(std::move(c));
        }
    }
    walk.finish();
    select_survivors(dc);
    return dc;
}

/// evaluate_candidates_escalated on `walk`.
template <class Walk>
diagnostic_candidates escalated_pass(const compiled_spec& cs, Walk& walk,
                                     const symptom_report& report,
                                     const candidate_sets& cands,
                                     bool include_addressing) {
    diagnostic_candidates dc;
    dc.evaluated.reserve(itc_size(cands));
    const std::uint32_t machines =
        static_cast<std::uint32_t>(cs.machine_offset.size()) - 1;
    for (std::uint32_t m = 0; m < machines; ++m) {
        for (transition_id t : cands.itc[m]) {
            const global_transition_id gid{machine_id{m}, t};
            const std::uint32_t d = cs.dense_id(gid);
            evaluated_candidate c;
            c.id = gid;
            c.is_ust = cands.ust && *cands.ust == gid;

            // The ust's observed uso joins its pool, without a slot, when
            // the pool lacks it.
            std::span<const symbol> pool = pool_of(cs, d);
            const auto slotted = static_cast<std::uint32_t>(pool.size());
            std::vector<symbol> widened;
            if (c.is_ust && !report.uso.output.is_epsilon() &&
                std::find(pool.begin(), pool.end(), report.uso.output) ==
                    pool.end() &&
                report.uso.output.id != cs.out_sym[d]) {
                widened.assign(pool.begin(), pool.end());
                widened.push_back(report.uso.output);
                pool = widened;
            }

            walk_end_states(walk, cs, c);
            walk_outputs(walk, cs, c, pool, 0, slotted);
            walk_statout(walk, cs, c, pool, 0, slotted);
            if (include_addressing) walk_destinations(walk, cs, c);
            dc.evaluated.push_back(std::move(c));
        }
    }
    walk.finish();
    select_survivors(dc);
    return dc;
}

}  // namespace

diagnostic_candidates evaluate_candidates(const compiled_spec& cs,
                                          flat_replayer& replayer,
                                          const symptom_report& report,
                                          const candidate_sets& cands) {
    if (const std::vector<std::uint32_t>* flagged = replayer.flagged()) {
        flagged_walk walk(replayer, *flagged);
        return routed_pass(cs, walk, report, cands);
    }
    every_walk walk(replayer);
    return routed_pass(cs, walk, report, cands);
}

diagnostic_candidates evaluate_candidates_escalated(
    const compiled_spec& cs, flat_replayer& replayer,
    const symptom_report& report, const candidate_sets& cands,
    bool include_addressing) {
    if (const std::vector<std::uint32_t>* flagged = replayer.flagged()) {
        flagged_walk walk(replayer, *flagged);
        return escalated_pass(cs, walk, report, cands, include_addressing);
    }
    every_walk walk(replayer);
    return escalated_pass(cs, walk, report, cands, include_addressing);
}

}  // namespace cfsmdiag
