#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
thread_local int64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

int64_t thread_allocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
