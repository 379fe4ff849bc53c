// Bump-arena allocator for per-solve scratch.
//
// A Newton solve allocates the same handful of buffers (rhs, iterate,
// refactor scatter vector, permuted-rhs scratch) thousands of times per
// array run when every transient call builds its own workspace. The Arena
// turns those into pointer bumps against one owned block: a workspace binds
// its buffers to its arena once per (re)bind, carves what it needs, and
// reset() recycles the whole block for the next binding instead of going
// back to the heap.
//
// Contracts:
//   * Trivial element types only (the arena never runs constructors or
//     destructors; ArenaBuf enforces this with a static_assert).
//   * reset() invalidates every span carved since the previous reset.
//     ArenaBuf owners must resize()/assign() again after a reset before
//     touching their data — NewtonWorkspace::prepare() is the only reset
//     site in the solver and re-carves all of its buffers right after.
//   * Not thread-safe. One arena per workspace, one workspace per thread —
//     the same ownership rule the solver caches already follow.
//
// Metrics (enabled-path only): util.arena.bytes (gauge, block bytes owned
// at reset; max tracks the process high-water) and util.arena.resets
// (counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace ecms::util {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Carves `bytes` aligned to `align` (power of two). Grows by chaining a
  /// new block when the current one is exhausted; reset() coalesces the
  /// chain so steady state is a single block and zero heap traffic.
  std::byte* allocate(std::size_t bytes,
                      std::size_t align = alignof(std::max_align_t));

  /// Typed carve; contents are uninitialized.
  template <typename T>
  std::span<T> allocate_span(std::size_t count) {
    static_assert(std::is_trivially_default_constructible_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena storage never runs ctors/dtors");
    return {reinterpret_cast<T*>(allocate(count * sizeof(T), alignof(T))),
            count};
  }

  /// Recycles all carved storage (O(1) unless coalescing a growth chain).
  /// Every span handed out since the last reset is invalidated.
  void reset();

  /// Bytes owned across all blocks.
  std::size_t capacity() const;
  /// Bytes carved since the last reset (alignment padding not counted).
  std::size_t bytes_in_use() const { return in_use_; }
  std::uint64_t resets() const { return resets_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;  // offset into blocks_.back()
  std::size_t in_use_ = 0;
  std::uint64_t resets_ = 0;
};

/// A sized view into arena storage with a std::vector fallback when no
/// arena is bound. Grow-only capacity within one arena generation: shrink
/// and regrow inside the high-water mark never re-carves, so per-iteration
/// resize() calls in the solve loop are free.
template <typename T>
class ArenaBuf {
 public:
  /// Binds (or unbinds, with nullptr) the backing arena and drops the
  /// current contents. Call after every Arena::reset().
  void bind(Arena* arena) {
    arena_ = arena;
    base_ = nullptr;
    cap_ = 0;
    size_ = 0;
    fallback_.clear();
  }

  /// Resizes to `n` elements; newly exposed elements are unspecified.
  void resize(std::size_t n) {
    if (n > cap_) {
      if (arena_ != nullptr) {
        base_ = arena_->allocate_span<T>(n).data();
      } else {
        fallback_.resize(n);
        base_ = fallback_.data();
      }
      cap_ = n;
    }
    size_ = n;
  }

  void assign(std::size_t n, const T& value) {
    resize(n);
    for (std::size_t i = 0; i < size_; ++i) base_[i] = value;
  }

  void copy_from(std::span<const T> src) {
    resize(src.size());
    for (std::size_t i = 0; i < size_; ++i) base_[i] = src[i];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return base_; }
  const T* data() const { return base_; }
  T& operator[](std::size_t i) { return base_[i]; }
  const T& operator[](std::size_t i) const { return base_[i]; }
  T* begin() { return base_; }
  T* end() { return base_ + size_; }
  const T* begin() const { return base_; }
  const T* end() const { return base_ + size_; }

  std::span<T> span() { return {base_, size_}; }
  std::span<const T> span() const { return {base_, size_}; }
  operator std::span<T>() { return span(); }
  operator std::span<const T>() const { return span(); }

 private:
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaBuf elements must be trivially copyable");
  Arena* arena_ = nullptr;
  std::vector<T> fallback_;
  T* base_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ecms::util
