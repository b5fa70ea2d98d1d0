// Fixed-width dynamic bitset + bump arena: the set algebra of the compiled
// diagnosis core.
//
// The paper's Steps 4-5C are intersections, differences and filters over
// small dense integer domains (transitions indexed 0..total).  `dyn_bitset`
// encodes such a set as packed 64-bit words with the handful of operations
// the pipeline needs — and/or/andnot, equality, population count, ascending
// set-bit iteration (which matches std::set iteration order, the property
// the reporting boundary relies on).  `bit_arena` is a bump allocator for
// the per-diagnosis scratch sets: a campaign resets it between faults
// instead of churning the heap.  `epoch_set` and `packed_set` are the BFS
// kernels' visited sets, dense over a product index and hashed over packed
// state words.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace cfsmdiag {

/// Bump allocator handing out zeroed word blocks.  reset() rewinds to the
/// start without releasing capacity, so steady-state allocation is pointer
/// arithmetic.  Blocks never move once handed out (growth appends new
/// blocks), so bitsets built from one arena stay valid across later
/// allocations; they die with the arena (or its reset).
class bit_arena {
  public:
    /// Returns `words` zeroed std::uint64_t slots.
    std::uint64_t* alloc(std::size_t words) {
        if (words == 0) return nullptr;
        while (block_ < blocks_.size()) {
            auto& b = blocks_[block_];
            if (b.size() - used_ >= words) {
                std::uint64_t* p = b.data() + used_;
                used_ += words;
                for (std::size_t i = 0; i < words; ++i) p[i] = 0;
                return p;
            }
            ++block_;
            used_ = 0;
        }
        const std::size_t cap = words > default_block_words
                                    ? words
                                    : default_block_words;
        blocks_.emplace_back(cap, 0);
        block_ = blocks_.size() - 1;
        used_ = words;
        return blocks_.back().data();
    }

    /// Rewinds to the first block; capacity is kept for reuse.
    void reset() noexcept {
        block_ = 0;
        used_ = 0;
    }

    /// Total bytes of retained block capacity — what a memory quota
    /// (util/budget.hpp) accounts against, since reset() keeps capacity.
    [[nodiscard]] std::size_t capacity_bytes() const noexcept {
        std::size_t words = 0;
        for (const auto& b : blocks_) words += b.size();
        return words * sizeof(std::uint64_t);
    }

  private:
    static constexpr std::size_t default_block_words = 1024;
    std::vector<std::vector<std::uint64_t>> blocks_;
    std::size_t block_ = 0;
    std::size_t used_ = 0;
};

/// Fixed-width bitset over [0, size()).  Width is set at construction and
/// never changes; binary operations require equal widths.  Storage is either
/// owned (default constructor path) or arena-backed (scratch sets on the
/// per-fault path).  Copies always own their words.
class dyn_bitset {
  public:
    dyn_bitset() = default;

    /// Owned storage, all bits clear.
    explicit dyn_bitset(std::size_t bits)
        : bits_(bits), storage_(word_count(bits), 0) {
        words_ = storage_.data();
    }

    /// Arena-backed storage, all bits clear.  The bitset must not outlive
    /// the arena (or its next reset()).
    dyn_bitset(std::size_t bits, bit_arena& arena)
        : bits_(bits), words_(arena.alloc(word_count(bits))) {}

    dyn_bitset(const dyn_bitset& o)
        : bits_(o.bits_), storage_(o.words_, o.words_ + word_count(o.bits_)) {
        words_ = storage_.data();
    }
    dyn_bitset(dyn_bitset&& o) noexcept
        : bits_(o.bits_), storage_(std::move(o.storage_)) {
        words_ = storage_.empty() ? o.words_ : storage_.data();
        o.bits_ = 0;
        o.words_ = nullptr;
    }
    dyn_bitset& operator=(const dyn_bitset& o) {
        if (this == &o) return *this;
        bits_ = o.bits_;
        storage_.assign(o.words_, o.words_ + word_count(o.bits_));
        words_ = storage_.data();
        return *this;
    }
    dyn_bitset& operator=(dyn_bitset&& o) noexcept {
        bits_ = o.bits_;
        storage_ = std::move(o.storage_);
        words_ = storage_.empty() ? o.words_ : storage_.data();
        o.bits_ = 0;
        o.words_ = nullptr;
        return *this;
    }

    [[nodiscard]] std::size_t size() const noexcept { return bits_; }

    void set(std::size_t i) noexcept {
        words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    void clear(std::size_t i) noexcept {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
    [[nodiscard]] bool test(std::size_t i) const noexcept {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /// Sets every bit in [0, size()) — the "full universe" start of an
    /// intersection chain.
    void set_all() noexcept {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) words_[w] = ~std::uint64_t{0};
        trim();
    }
    void clear_all() noexcept {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) words_[w] = 0;
    }

    dyn_bitset& operator&=(const dyn_bitset& o) noexcept {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) words_[w] &= o.words_[w];
        return *this;
    }
    dyn_bitset& operator|=(const dyn_bitset& o) noexcept {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) words_[w] |= o.words_[w];
        return *this;
    }
    /// this \ o.
    dyn_bitset& andnot(const dyn_bitset& o) noexcept {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) words_[w] &= ~o.words_[w];
        return *this;
    }

    [[nodiscard]] bool operator==(const dyn_bitset& o) const noexcept {
        if (bits_ != o.bits_) return false;
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) {
            if (words_[w] != o.words_[w]) return false;
        }
        return true;
    }

    [[nodiscard]] std::size_t count() const noexcept {
        std::size_t c = 0;
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w)
            c += static_cast<std::size_t>(std::popcount(words_[w]));
        return c;
    }
    [[nodiscard]] bool any() const noexcept {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) {
            if (words_[w] != 0) return true;
        }
        return false;
    }
    [[nodiscard]] bool none() const noexcept { return !any(); }

    /// Calls `f(i)` for every set bit, ascending — the iteration order that
    /// makes bitset-built vectors equal their sorted-std::set counterparts.
    template <class F>
    void for_each_set(F&& f) const {
        const std::size_t n = word_count(bits_);
        for (std::size_t w = 0; w < n; ++w) {
            std::uint64_t word = words_[w];
            while (word != 0) {
                const int b = std::countr_zero(word);
                f((w << 6) + static_cast<std::size_t>(b));
                word &= word - 1;
            }
        }
    }

    /// Set bits as an ascending index vector.
    [[nodiscard]] std::vector<std::uint32_t> to_indices() const {
        std::vector<std::uint32_t> out;
        out.reserve(count());
        for_each_set([&](std::size_t i) {
            out.push_back(static_cast<std::uint32_t>(i));
        });
        return out;
    }

  private:
    [[nodiscard]] static constexpr std::size_t word_count(
        std::size_t bits) noexcept {
        return (bits + 63) / 64;
    }
    /// Clears the unused high bits of the last word (set_all would
    /// otherwise break count()/equality).
    void trim() noexcept {
        const std::size_t tail = bits_ & 63;
        if (bits_ != 0 && tail != 0)
            words_[word_count(bits_) - 1] &=
                (std::uint64_t{1} << tail) - 1;
    }

    std::size_t bits_ = 0;
    std::uint64_t* words_ = nullptr;
    std::vector<std::uint64_t> storage_;
};

/// Epoch-tagged membership set over a dense integer domain: clear() is O(1)
/// (bump the epoch instead of zeroing), so a caller running many short
/// queries over the same universe pays one store per insert and nothing per
/// reset.  The discrimination engine's joint-BFS visited set is the
/// motivating use: thousands of searches per campaign over the same packed
/// product space, each needing a fresh set.  Tags are one byte: a thread
/// keeps its set for its lifetime and a search visits a few dozen of its
/// up to millions of elements, so memory, not the clear every 255
/// searches, is the cost that matters.
class epoch_set {
  public:
    /// Starts a fresh query over `universe` elements.  Grows (never
    /// shrinks) the backing store; previous contents are dropped in O(1)
    /// except on epoch-counter wraparound (every 255 queries), where one
    /// full clear keeps stale tags from a prior generation unreadable.
    void begin(std::size_t universe) {
        if (++epoch_ == 0) {
            std::fill(tags_.begin(), tags_.end(), 0);
            epoch_ = 1;
        }
        if (tags_.size() < universe) tags_.resize(universe, 0);
    }

    /// Inserts `v`; returns true if it was absent.  `v` must be inside the
    /// universe passed to the last begin().
    bool insert(std::size_t v) {
        if (tags_[v] == epoch_) return false;
        tags_[v] = epoch_;
        return true;
    }

    [[nodiscard]] bool contains(std::size_t v) const noexcept {
        return tags_[v] == epoch_;
    }

  private:
    std::vector<std::uint8_t> tags_;
    std::uint8_t epoch_ = 0;
};

/// Hashed membership set of node numbers keyed on the `stride` u64 words
/// each node owns in a caller's contiguous array (node n's words start at
/// words + n * stride): open addressing with linear probing over a
/// power-of-two table of u32 slots kept at most half full, grown by
/// rehashing, so nothing is allocated per node.  The BFS kernels' visited
/// set where no dense index fits: the caller appends a node's words, then
/// inserts the node, and drops the words again when an equal node was
/// already present.
class packed_set {
  public:
    explicit packed_set(std::size_t stride) : stride_(stride) {}

    /// Inserts node `n`, whose words must already be in `words`; returns
    /// true if no node with equal words was present.  `words` must hold
    /// every node inserted so far (it may have moved since).
    bool insert(const std::uint64_t* words, std::uint32_t n) {
        if (2 * (size_ + 1) > slots_.size()) grow(words);
        const std::uint64_t* key = words + n * stride_;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const std::uint32_t at = slots_[i];
            if (at == empty) {
                slots_[i] = n;
                ++size_;
                return true;
            }
            if (std::equal(key, key + stride_, words + at * stride_))
                return false;
        }
    }

    /// Forgets every node, keeping the table.
    void clear() noexcept {
        std::fill(slots_.begin(), slots_.end(), empty);
        size_ = 0;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

  private:
    static constexpr std::uint32_t empty = ~std::uint32_t{0};

    [[nodiscard]] std::uint64_t hash(const std::uint64_t* key) const noexcept {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < stride_; ++i)
            h = (h ^ key[i]) * 0x9e3779b97f4a7c15ull;
        // Packed states vary in their low fields; fold the high product
        // bits down into the bits the mask keeps.
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ull;
        return h ^ (h >> 32);
    }

    void grow(const std::uint64_t* words) {
        std::vector<std::uint32_t> old(
            std::max<std::size_t>(16, 2 * slots_.size()), empty);
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const std::uint32_t n : old) {
            if (n == empty) continue;
            std::size_t i = hash(words + n * stride_) & mask;
            while (slots_[i] != empty) i = (i + 1) & mask;
            slots_[i] = n;
        }
    }

    std::size_t stride_;
    std::vector<std::uint32_t> slots_;
    std::size_t size_ = 0;
};

}  // namespace cfsmdiag
