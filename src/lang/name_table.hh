/**
 * @file
 * Flat open-addressing map from names to integer ids, for the .wvl
 * front end's per-loop symbol and op-id lookups. Keys are views:
 * the table never owns or copies a name, so whatever the views point
 * into (the source text, a Ddg's node names) must outlive the table's
 * use. reset() keeps the slot storage, so a table reused from loop to
 * loop stops allocating once it has seen its largest loop.
 */

#ifndef WIVLIW_LANG_NAME_TABLE_HH
#define WIVLIW_LANG_NAME_TABLE_HH

#include <functional>
#include <string_view>
#include <vector>

namespace vliw::lang {

class NameTable
{
  public:
    /** Empty the table and size it for @p expected names. */
    void
    reset(std::size_t expected)
    {
        std::size_t capacity = 16;
        while (capacity < 2 * expected)
            capacity *= 2;
        slots_.assign(capacity, Slot{});
        size_ = 0;
    }

    /** The id stored for @p name, or -1. */
    int
    find(std::string_view name) const
    {
        if (slots_.empty())
            return -1;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(name) & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (!s.used)
                return -1;
            if (s.key == name)
                return s.id;
        }
    }

    /** Add @p name with @p id; false (and no change) if present. */
    bool
    insert(std::string_view name, int id)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(name) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (!s.used) {
                s = Slot{name, id, true};
                ++size_;
                return true;
            }
            if (s.key == name)
                return false;
        }
    }

  private:
    struct Slot
    {
        std::string_view key;
        int id = -1;
        bool used = false;
    };

    static std::size_t
    hash(std::string_view name)
    {
        return std::hash<std::string_view>{}(name);
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        reset(old.size());
        for (const Slot &s : old)
            if (s.used)
                insert(s.key, s.id);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace vliw::lang

#endif // WIVLIW_LANG_NAME_TABLE_HH
