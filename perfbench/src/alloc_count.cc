// Replaces the global operator new/delete of the benchmark binary so the
// traced run can report heap allocations per inserted and per scanned row.
// The count covers every thread in the process — client, server workers,
// event loop and engine — which is the cost a row pays end to end.
#include <atomic>
#include <cstdlib>
#include <new>

#include "probe.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* Allocate(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

namespace perfbench {
void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
