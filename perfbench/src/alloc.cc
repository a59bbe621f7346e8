/**
 * @file
 * Global operator new/delete that count every allocation in the
 * process, like bench/perf_sim.cc, so per-layer allocation counts are
 * measured, not asserted. Kept in a file of its own: nothing here may
 * be inlined into code that allocates.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

std::uint64_t
perfbench::allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}
