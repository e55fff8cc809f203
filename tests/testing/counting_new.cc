#include "testing/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_largest{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_largest.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace doduo::testing {

size_t OperatorNewCalls() {
  return g_allocations.load(std::memory_order_relaxed);
}

size_t LargestOperatorNew() {
  return g_largest.load(std::memory_order_relaxed);
}

void ResetLargestOperatorNew() {
  g_largest.store(0, std::memory_order_relaxed);
}

}  // namespace doduo::testing
