// Heap accounting for the bench binaries that gate allocations: linking
// bench/alloc_count.cc replaces the global operator new/delete with versions
// that count allocations and the live heap bytes they hold.
#ifndef BENCH_ALLOC_COUNT_H_
#define BENCH_ALLOC_COUNT_H_

#include <atomic>
#include <cstdint>

// operator new calls since program start (array forms included).
extern std::atomic<uint64_t> g_allocations;
// Heap bytes currently held through operator new, by malloc_usable_size, so
// a delete subtracts exactly what its allocation added.
extern std::atomic<int64_t> g_live_bytes;

#endif  // BENCH_ALLOC_COUNT_H_
