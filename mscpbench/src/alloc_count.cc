/**
 * @file
 * Heap-allocation counter of the benchmark's executables: replaces
 * the global operator new family so every allocation the simulator
 * makes is tallied in mscpbench::g_allocs. The simulator library
 * itself is built unchanged.
 */

#include <cstdlib>
#include <new>

#include "harness.hh"

namespace
{

void *
countedAlloc(std::size_t sz) noexcept
{
    mscpbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(sz ? sz : 1);
}

void *
countedAllocOrThrow(std::size_t sz)
{
    if (void *p = countedAlloc(sz))
        return p;
    throw std::bad_alloc{};
}

} // anonymous namespace

void *operator new(std::size_t sz) { return countedAllocOrThrow(sz); }
void *operator new[](std::size_t sz) { return countedAllocOrThrow(sz); }
void *
operator new(std::size_t sz, const std::nothrow_t &) noexcept
{
    return countedAlloc(sz);
}
void *
operator new[](std::size_t sz, const std::nothrow_t &) noexcept
{
    return countedAlloc(sz);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
