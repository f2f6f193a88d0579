// Global operator new/delete replacement tracking allocation count AND live
// heap bytes, so "allocation-free hot path" and "bytes per simulated home"
// are measured numbers, not claims.
//
// Every allocation carries a 16-byte header ({base pointer, size}) in front
// of the returned block; delete reads it back, so live-byte accounting
// needs no hash table (and therefore no allocation of its own). Aligned
// overloads over-allocate and record the real malloc base in the header.
//
// This header DEFINES the (non-inline, binary-global) replacement
// operators: include it from exactly ONE translation unit per binary
// (bench_core.cpp and bench_metro.cpp do).
//
// Under ASan the replacement still works, but redzones and quarantine make
// the byte numbers meaningless — run byte-gated benches with --no-gate in
// sanitizer lanes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace hpop::benchhook {

inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::uint64_t> g_frees{0};
inline std::atomic<std::int64_t> g_live_bytes{0};

inline std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
inline std::uint64_t free_count() {
  return g_frees.load(std::memory_order_relaxed);
}
inline std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

struct Header {
  void* base;
  std::size_t size;
};
static_assert(sizeof(Header) <= 16);

/// The header in front of block `p`. Computed on the address, not as
/// `p[-1]`: GCC's bounds check would read that as indexing before the
/// start of the block.
inline Header* header_of(void* p) {
  return reinterpret_cast<Header*>(reinterpret_cast<std::uintptr_t>(p) -
                                   sizeof(Header));
}

inline void* hooked_alloc(std::size_t size, std::size_t align) noexcept {
  // Room for the header plus whatever slack alignment needs. malloc blocks
  // are 16-aligned already; stricter alignments pad and round up.
  const std::size_t slack = align > 16 ? align : 0;
  void* base = std::malloc(size + 16 + slack);
  if (base == nullptr) return nullptr;
  auto addr = reinterpret_cast<std::uintptr_t>(base) + 16;
  if (align > 16) addr = (addr + align - 1) & ~(align - 1);
  void* p = reinterpret_cast<void*>(addr);
  *header_of(p) = {base, size};
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return p;
}

inline void hooked_free(void* p) noexcept {
  if (p == nullptr) return;
  const Header h = *header_of(p);
  g_frees.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(h.size),
                         std::memory_order_relaxed);
  std::free(h.base);
}

}  // namespace hpop::benchhook

void* operator new(std::size_t size) {
  if (void* p = hpop::benchhook::hooked_alloc(size ? size : 1, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = hpop::benchhook::hooked_alloc(
          size ? size : 1, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return hpop::benchhook::hooked_alloc(size ? size : 1, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return hpop::benchhook::hooked_alloc(size ? size : 1, 0);
}

void operator delete(void* p) noexcept { hpop::benchhook::hooked_free(p); }
void operator delete[](void* p) noexcept { hpop::benchhook::hooked_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  hpop::benchhook::hooked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  hpop::benchhook::hooked_free(p);
}
