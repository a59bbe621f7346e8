/**
 * @file
 * Flat table of in-flight transactions (subblock fetches, block
 * fills) keyed by an opaque 64-bit id, each live until a completion
 * cycle. Semantically a map whose entries become invisible once
 * their cycle passes; physically a small flat vector holding only
 * the entries still in flight, so the steady state allocates nothing
 * and a lookup scans a handful of entries: the memory latencies
 * bound the number of genuinely concurrent transactions.
 *
 * Requests arrive in non-decreasing time order (the lock-step core
 * guarantees it), which is what makes dropping safe: an entry
 * expired at the current access can never be visible again, so
 * set() drops every expired entry its scan meets, and find() and
 * set() drop the whole table once its latest completion has passed.
 */

#ifndef WIVLIW_MEM_PENDING_TABLE_HH
#define WIVLIW_MEM_PENDING_TABLE_HH

#include <cstdint>
#include <vector>

#include "support/stats.hh"

namespace vliw {

/** In-flight transactions: key -> completion cycle, expiring. */
class PendingTable
{
  public:
    /**
     * Completion cycle of a live entry for @p key, or nullptr when
     * none is in flight (absent or already completed by @p now).
     * The pointer is valid until the next call on the table. The
     * scan reads every entry without an early exit.
     */
    const Cycles *
    find(std::uint64_t key, Cycles now)
    {
        if (now >= latest_) {
            entries_.clear();
            return nullptr;
        }
        const Entry *entries = entries_.data();
        const std::size_t n = entries_.size();
        const Entry *found = nullptr;
        for (std::size_t i = 0; i < n; ++i) {
            const bool live = (entries[i].key == key) &
                (entries[i].until > now);
            found = live ? &entries[i] : found;
        }
        return found ? &found->until : nullptr;
    }

    /**
     * Record that @p key is in flight until @p until, overwriting
     * any previous entry for the key.
     */
    void
    set(std::uint64_t key, Cycles until, Cycles now)
    {
        if (now >= latest_)
            entries_.clear();
        latest_ = until > latest_ ? until : latest_;
        for (std::size_t i = 0; i < entries_.size();) {
            Entry &e = entries_[i];
            if (e.until <= now) {
                drop(i);
                continue;
            }
            if (e.key == key) {
                e.until = until;
                return;
            }
            ++i;
        }
        entries_.push_back({key, until});
    }

    /** Forget everything; capacity is kept. */
    void
    clear()
    {
        entries_.clear();
        latest_ = 0;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::uint64_t key;
        Cycles until;
    };

    /** Remove entry @p i; keys are unique, so order is free. */
    void
    drop(std::size_t i)
    {
        entries_[i] = entries_.back();
        entries_.pop_back();
    }

    std::vector<Entry> entries_;
    /** No entry completes later than this. */
    Cycles latest_ = 0;
};

} // namespace vliw

#endif // WIVLIW_MEM_PENDING_TABLE_HH
