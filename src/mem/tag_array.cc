#include "tag_array.hh"

#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

TagArray::TagArray(int sets, int ways)
    : sets_(sets), ways_(ways),
      setsPow2_(isPowerOfTwo(std::uint64_t(sets))),
      setMask_(std::uint64_t(sets) - 1)
{
    vliw_assert(sets > 0 && ways > 0, "degenerate tag array ",
                sets, "x", ways);
    const std::size_t lines = static_cast<std::size_t>(sets) *
        static_cast<std::size_t>(ways);
    keys_.assign(lines, kEmpty);
    lastUse_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

int
TagArray::insert(std::uint64_t key, std::uint64_t *evicted_key,
                 bool *did_evict)
{
    vliw_assert(key != kEmpty, "insert of the reserved empty key");
    const int first = setOf(key) * ways_;
    bool present = false;
    int empty = kNoLine;
    int lru = first;
    for (int line = first; line < first + ways_; ++line) {
        const std::uint64_t k = keys_[std::size_t(line)];
        present |= k == key;
        empty = empty == kNoLine && k == kEmpty ? line : empty;
        lru = lastUse_[std::size_t(line)] < lastUse_[std::size_t(lru)]
            ? line : lru;
    }
    vliw_assert(!present, "insert of already-present key");
    const int victim = empty != kNoLine ? empty : lru;
    const std::size_t v = std::size_t(victim);
    const bool valid = keys_[v] != kEmpty;

    if (did_evict)
        *did_evict = valid;
    if (evicted_key && valid)
        *evicted_key = keys_[v];
    evictedDirty_ = valid && dirty_[v];
    keys_[v] = key;
    dirty_[v] = 0;
    lastUse_[v] = ++useCounter_;
    return victim;
}

bool
TagArray::isDirty(int line) const
{
    return lineValid(line) && dirty_[std::size_t(line)] != 0;
}

bool
TagArray::invalidate(std::uint64_t key)
{
    const int line = probe(key);
    if (line == kNoLine)
        return false;
    keys_[std::size_t(line)] = kEmpty;
    return true;
}

void
TagArray::invalidateLine(int line)
{
    vliw_assert(line >= 0 && std::size_t(line) < keys_.size(),
                "bad line handle");
    keys_[std::size_t(line)] = kEmpty;
}

std::uint64_t
TagArray::keyOf(int line) const
{
    vliw_assert(lineValid(line), "keyOf on invalid line");
    return keys_[std::size_t(line)];
}

void
TagArray::clear()
{
    for (std::uint64_t &k : keys_)
        k = kEmpty;
}

void
TagArray::reset()
{
    clear();
    for (std::uint8_t &d : dirty_)
        d = 0;
    for (std::uint64_t &u : lastUse_)
        u = 0;
    useCounter_ = 0;
    evictedDirty_ = false;
}

int
TagArray::occupancy() const
{
    int n = 0;
    for (std::uint64_t k : keys_) {
        if (k != kEmpty)
            ++n;
    }
    return n;
}

} // namespace vliw
