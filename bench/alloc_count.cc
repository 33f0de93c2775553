// Counting replacement of the global operator new/delete (see
// bench/alloc_count.h). Array forms route through these by default.
#include "bench/alloc_count.h"

#include <cstdlib>
#include <malloc.h>
#include <new>

std::atomic<uint64_t> g_allocations{0};
std::atomic<int64_t> g_live_bytes{0};

void* operator new(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, size_t) noexcept { operator delete(p); }
