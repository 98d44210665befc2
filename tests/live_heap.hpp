// Live-heap counter for memory tests: replaces the global operator new /
// delete with versions that track the bytes currently allocated
// (malloc_usable_size of every live block). Replacement allocation
// functions must be defined once per program, so include this header from
// exactly one translation unit of a test binary.
//
// Sanitizer builds may route allocations around the replaced operator new;
// tests call live_heap_counted() and skip themselves when it sees nothing.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mck::test {

inline std::atomic<std::int64_t> g_live_bytes{0};

inline void* count_alloc(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

inline void count_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

inline std::size_t round_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

/// Heap bytes currently allocated through operator new.
inline std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

/// False when the replaced operator new is bypassed (sanitizer builds).
inline bool live_heap_counted() {
  const std::int64_t before = live_bytes();
  int* probe = new int(0);
  const bool seen = live_bytes() != before;
  delete probe;
  return seen;
}

}  // namespace mck::test

void* operator new(std::size_t n) {
  return mck::test::count_alloc(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  const auto al = static_cast<std::size_t>(a);
  return mck::test::count_alloc(
      std::aligned_alloc(al, mck::test::round_up(n ? n : 1, al)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// be replaced too, or their blocks would reach the replaced delete below
// from another allocator.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n ? n : 1);
  return p == nullptr ? nullptr : mck::test::count_alloc(p);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { mck::test::count_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  mck::test::count_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  mck::test::count_free(p);
}
void operator delete[](void* p) noexcept { mck::test::count_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  mck::test::count_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  mck::test::count_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  mck::test::count_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  mck::test::count_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  mck::test::count_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  mck::test::count_free(p);
}
