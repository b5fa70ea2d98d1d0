// util/bitset.hpp: dyn_bitset set algebra against a std::set reference
// (including empty-set and full-universe edges and word-boundary widths),
// arena-backed storage stability, the ascending-iteration property the
// compiled core's reporting boundary relies on, epoch_set's one-byte
// tags across their wraparound, and packed_set against a std::set of keys
// across its rehashes and clears.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace cfsmdiag {
namespace {

/// Widths that straddle the 64-bit word boundaries.
const std::size_t kWidths[] = {1, 2, 63, 64, 65, 127, 128, 129, 200};

std::set<std::size_t> as_set(const dyn_bitset& b) {
    std::set<std::size_t> out;
    b.for_each_set([&](std::size_t i) { out.insert(i); });
    return out;
}

dyn_bitset from_set(std::size_t bits, const std::set<std::size_t>& s) {
    dyn_bitset b(bits);
    for (std::size_t i : s) b.set(i);
    return b;
}

TEST(dyn_bitset, empty_and_full_universe_edges) {
    for (std::size_t bits : kWidths) {
        dyn_bitset b(bits);
        EXPECT_TRUE(b.none()) << bits;
        EXPECT_EQ(b.count(), 0u) << bits;
        EXPECT_TRUE(b.to_indices().empty()) << bits;

        b.set_all();
        EXPECT_EQ(b.count(), bits) << bits;
        EXPECT_TRUE(b.any()) << bits;
        for (std::size_t i = 0; i < bits; ++i) EXPECT_TRUE(b.test(i));

        // Full ∩ full = full; full \ full = empty; empty ∪ X = X.
        dyn_bitset full(bits);
        full.set_all();
        dyn_bitset x = b;
        x &= full;
        EXPECT_EQ(x, full) << bits;
        x.andnot(full);
        EXPECT_TRUE(x.none()) << bits;
        x |= full;
        EXPECT_EQ(x, full) << bits;
    }
}

TEST(dyn_bitset, set_all_trims_tail_word) {
    // count()/equality would be wrong if set_all left the unused high bits
    // of the last word set.
    dyn_bitset a(65);
    a.set_all();
    EXPECT_EQ(a.count(), 65u);
    dyn_bitset b(65);
    for (std::size_t i = 0; i < 65; ++i) b.set(i);
    EXPECT_EQ(a, b);
}

TEST(dyn_bitset, for_each_set_is_ascending) {
    rng random(7);
    for (std::size_t bits : kWidths) {
        dyn_bitset b(bits);
        for (std::size_t i = 0; i < bits; ++i) {
            if (random.below(3) == 0) b.set(i);
        }
        const auto idx = b.to_indices();
        EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end())) << bits;
        EXPECT_EQ(idx.size(), b.count()) << bits;
    }
}

TEST(dyn_bitset, randomized_algebra_matches_std_set_reference) {
    rng random(42);
    for (std::size_t bits : kWidths) {
        for (int round = 0; round < 20; ++round) {
            std::set<std::size_t> ra, rb;
            for (std::size_t i = 0; i < bits; ++i) {
                if (random.below(2) == 0) ra.insert(i);
                if (random.below(2) == 0) rb.insert(i);
            }
            const dyn_bitset a = from_set(bits, ra);
            const dyn_bitset b = from_set(bits, rb);

            std::set<std::size_t> r_and, r_or, r_diff;
            std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                                  std::inserter(r_and, r_and.end()));
            std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                           std::inserter(r_or, r_or.end()));
            std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                                std::inserter(r_diff, r_diff.end()));

            dyn_bitset x = a;
            x &= b;
            EXPECT_EQ(as_set(x), r_and);
            x = a;
            x |= b;
            EXPECT_EQ(as_set(x), r_or);
            x = a;
            x.andnot(b);
            EXPECT_EQ(as_set(x), r_diff);

            EXPECT_EQ(a == b, ra == rb);
            EXPECT_EQ(a.count(), ra.size());
            EXPECT_EQ(a.any(), !ra.empty());
        }
    }
}

TEST(dyn_bitset, clear_and_clear_all) {
    dyn_bitset b(130);
    b.set_all();
    b.clear(0);
    b.clear(64);
    b.clear(129);
    EXPECT_EQ(b.count(), 127u);
    EXPECT_FALSE(b.test(64));
    b.clear_all();
    EXPECT_TRUE(b.none());
}

TEST(dyn_bitset, copies_own_their_words) {
    bit_arena arena;
    dyn_bitset backed(100, arena);
    backed.set(3);
    backed.set(99);

    dyn_bitset copy = backed;  // owned
    arena.reset();
    dyn_bitset clobber(100, arena);  // reuses the arena block, zeroed
    clobber.set_all();
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_TRUE(copy.test(3));
    EXPECT_TRUE(copy.test(99));
}

TEST(bit_arena, blocks_are_stable_and_zeroed) {
    bit_arena arena;
    // Many small allocations: earlier blocks must stay valid (and keep
    // their contents) while the arena grows.
    std::vector<dyn_bitset> sets;
    for (std::size_t i = 0; i < 300; ++i) {
        sets.emplace_back(193, arena);
        EXPECT_TRUE(sets.back().none()) << i;
        sets.back().set(i % 193);
    }
    for (std::size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(sets[i].count(), 1u) << i;
        EXPECT_TRUE(sets[i].test(i % 193)) << i;
    }
}

TEST(bit_arena, reset_reuses_capacity_with_zeroed_words) {
    bit_arena arena;
    dyn_bitset a(512, arena);
    a.set_all();
    arena.reset();
    // The fresh allocation reuses the same block; it must come back zeroed.
    dyn_bitset b(512, arena);
    EXPECT_TRUE(b.none());
}

TEST(bit_arena, oversized_request_gets_its_own_block) {
    bit_arena arena;
    dyn_bitset small(64, arena);
    small.set(0);
    dyn_bitset big(70'000, arena);  // > default block, appended separately
    EXPECT_TRUE(big.none());
    big.set(69'999);
    EXPECT_TRUE(small.test(0));
    EXPECT_EQ(big.count(), 1u);
}

TEST(dyn_bitset, moves_preserve_arena_backing) {
    bit_arena arena;
    std::vector<dyn_bitset> sets;
    // Vector growth moves arena-backed bitsets; the words pointer must
    // follow (the storage vector is empty, so the raw pointer is kept).
    for (std::size_t i = 0; i < 50; ++i) {
        sets.emplace_back(80, arena);
        sets.back().set(i);
    }
    for (std::size_t i = 0; i < sets.size(); ++i) {
        EXPECT_TRUE(sets[i].test(i)) << i;
        EXPECT_EQ(sets[i].count(), 1u) << i;
    }
}

TEST(epoch_set, wraparound_never_reads_stale_tags) {
    // Query q inserts element q, so the tag of element 0 still holds the
    // first query's epoch when the one-byte counter comes round to it
    // again: only the wraparound clear keeps it from reading as present.
    constexpr std::size_t queries = 300;
    epoch_set set;
    for (std::size_t q = 0; q < queries; ++q) {
        set.begin(queries);
        for (std::size_t v = 0; v < queries; ++v)
            ASSERT_FALSE(set.contains(v)) << "query " << q << ", element " << v;
        EXPECT_TRUE(set.insert(q));
        EXPECT_FALSE(set.insert(q));
        EXPECT_TRUE(set.contains(q));
    }
}

TEST(packed_set, matches_std_set_across_growth_and_clear) {
    // Keys of two words drawn from a small range, so duplicates are common,
    // appended and rolled back the way the BFS kernels do.
    constexpr std::size_t stride = 2;
    rng random(17);
    packed_set set(stride);
    for (int round = 0; round < 3; ++round) {
        std::vector<std::uint64_t> words;
        std::set<std::vector<std::uint64_t>> want;
        set.clear();
        for (int i = 0; i < 5000; ++i) {
            const std::vector<std::uint64_t> key{random.below(40),
                                                 random.below(60) << 40};
            const auto n = static_cast<std::uint32_t>(words.size() / stride);
            words.insert(words.end(), key.begin(), key.end());
            const bool fresh = want.insert(key).second;
            ASSERT_EQ(set.insert(words.data(), n), fresh) << "round " << round
                                                          << ", key " << i;
            if (!fresh) words.resize(words.size() - stride);
        }
        EXPECT_EQ(set.size(), want.size());
        EXPECT_GT(want.size(), 1000u);
    }
}

}  // namespace
}  // namespace cfsmdiag
