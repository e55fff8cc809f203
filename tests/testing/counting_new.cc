#include "testing/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_largest{0};

void Count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_largest.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
}

void* CountedMalloc(std::size_t size) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}

// Over-aligned types (alignas(64) weight lines, AMX scratch) reach the
// align_val_t forms; they go through the same count and largest request.
void* CountedAlignedAlloc(std::size_t size, std::align_val_t al) noexcept {
  Count(size);
  const std::size_t align = static_cast<std::size_t>(al);
  // aligned_alloc wants a multiple of the alignment and a power-of-two
  // alignment of at least sizeof(void*).
  const std::size_t a = align < sizeof(void*) ? sizeof(void*) : align;
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}

void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(size, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

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
