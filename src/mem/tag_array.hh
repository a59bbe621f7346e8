/**
 * @file
 * Generic set-associative LRU tag array used by every cache model and
 * by the Attraction Buffers.
 *
 * Storage is struct-of-arrays over flat index arithmetic (line =
 * set * ways + way). An empty line holds the reserved key kEmpty,
 * so the common hit/miss question compares one contiguous run of
 * keys and nothing else, over every way without an early exit.
 */

#ifndef WIVLIW_MEM_TAG_ARRAY_HH
#define WIVLIW_MEM_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace vliw {

/** Set-associative LRU directory over opaque 64-bit keys. */
class TagArray
{
  public:
    TagArray(int sets, int ways);

    /** Line handle: set * ways + way, or -1. */
    static constexpr int kNoLine = -1;

    /** The key of an empty line; insert() refuses it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    /** Find without touching LRU state. Keys are unique within a
     *  set, so the scan need not stop at a match. */
    int
    probe(std::uint64_t key) const
    {
        if (key == kEmpty)
            return kNoLine;
        const int first = setOf(key) * ways_;
        const std::uint64_t *keys = keys_.data() + first;
        int found = kNoLine;
        for (int way = 0; way < ways_; ++way)
            found = keys[way] == key ? first + way : found;
        return found;
    }

    /** Find and update LRU; kNoLine on miss. */
    int
    touch(std::uint64_t key)
    {
        const int line = probe(key);
        if (line != kNoLine)
            lastUse_[std::size_t(line)] = ++useCounter_;
        return line;
    }

    /**
     * Insert @p key into the set's first empty line, else over its
     * LRU line, in one scan of the set.
     * @param evicted_key set to the displaced key (if any).
     * @return the line handle; asserts the key is not yet present.
     */
    int insert(std::uint64_t key, std::uint64_t *evicted_key = nullptr,
               bool *did_evict = nullptr);

    /** Drop @p key if present; true when something was removed. */
    bool invalidate(std::uint64_t key);

    /** Invalidate a line by handle. */
    void invalidateLine(int line);

    /** Key stored in @p line (line must be valid). */
    std::uint64_t keyOf(int line) const;

    bool
    lineValid(int line) const
    {
        return line >= 0 && std::size_t(line) < keys_.size() &&
            keys_[std::size_t(line)] != kEmpty;
    }

    /// @name Dirty tracking (write-back caches)
    /// @{
    /** Mark @p line dirty; cleared automatically on insert. */
    void
    markDirty(int line)
    {
        vliw_assert(lineValid(line), "markDirty on invalid line");
        dirty_[std::size_t(line)] = 1;
    }
    bool isDirty(int line) const;
    /** Dirty state of the victim evicted by the last insert(). */
    bool lastEvictionWasDirty() const { return evictedDirty_; }
    /// @}

    /** Invalidate everything. */
    void clear();

    /** clear() plus a rewind of the LRU clock: the array becomes
     *  indistinguishable from a freshly constructed one. */
    void reset();

    int sets() const { return sets_; }
    int ways() const { return ways_; }
    int occupancy() const;

  private:
    int
    setOf(std::uint64_t key) const
    {
        // Power-of-two set counts index with a mask; the modulo is
        // the general fallback.
        return setsPow2_ ? int(key & setMask_)
                         : int(key % std::uint64_t(sets_));
    }

    int sets_;
    int ways_;
    bool setsPow2_;
    /** sets_ - 1 (the set index mask when setsPow2_). */
    std::uint64_t setMask_;
    /** Line keys; kEmpty marks an invalid line. */
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useCounter_ = 0;
    bool evictedDirty_ = false;
};

} // namespace vliw

#endif // WIVLIW_MEM_TAG_ARRAY_HH
