// Replaces the global allocation functions of the benchmark binary (and only of it) so
// spans and warm steps can report how many heap allocations they made.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedMalloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

// GCC pairs the replaced operator new (malloc-backed) with the replaced operator
// delete (free-backed) across inlining and warns about the very pairing these
// replacements establish; the combination is intentional.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return CountedMalloc(size); }
void* operator new[](std::size_t size) { return CountedMalloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
