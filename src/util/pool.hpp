// Fixed-size freelist pool behind std::allocate_shared.
//
// The message path creates one short-lived payload object per message —
// a make_shared, i.e. one heap allocation, per send. Every allocation a
// Pool<T> serves has the same size (shared_ptr's combined control-block +
// T node), so freed nodes recycle through a freelist and the steady state
// never touches the global heap: acquire() pops a block, the last
// shared_ptr release pushes it back.
//
// Thread model: a pool's freelist belongs to the thread that created it
// (make_pooled<T>() keeps one thread_local pool per payload type, so
// acquire() always runs on the owner). Releases, however, may happen on
// ANY thread — a shared_ptr is free to cross threads, so whoever hands a
// payload to another thread (pool_thread_test does) may see the last
// reference dropped there. The release path is
// therefore thread-affine: the owner thread recycles the block into the
// freelist (single-threaded, allocation-free steady state); a foreign
// thread returns the block straight to the global heap instead of
// touching the owner's freelist unsynchronized.
//
// Lifetime: the allocator stored in each shared_ptr's control block holds
// a reference on the pool's core, so a payload may outlive the pool (and
// the owner thread) that produced it — the core, and with it the
// freelist, is torn down by whichever release comes last.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mck::util {

template <typename T>
class Pool {
 public:
  Pool() : core_(std::make_shared<Core>()) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Constructs a pool-backed shared_ptr<T>. Allocates only when the
  /// freelist is empty (cold start or high-water growth). Owner thread
  /// only — the freelist is single-threaded by design.
  template <typename... Args>
  std::shared_ptr<T> acquire(Args&&... args) {
    return std::allocate_shared<T>(Allocator<T>{core_},
                                   std::forward<Args>(args)...);
  }

  /// Blocks sitting in the freelist, ready for reuse.
  std::size_t free_blocks() const { return core_->free_.size(); }
  /// Blocks ever carved from the heap (freelisted + outstanding), minus
  /// those already handed back by foreign-thread releases.
  std::size_t blocks_allocated() const {
    return core_->allocated_ -
           static_cast<std::size_t>(
               core_->foreign_frees_.load(std::memory_order_relaxed));
  }
  std::size_t outstanding() const {
    return blocks_allocated() - core_->free_.size();
  }
  /// Releases that arrived on a non-owner thread and bypassed the
  /// freelist (returned straight to the heap).
  std::uint64_t foreign_frees() const {
    return core_->foreign_frees_.load(std::memory_order_relaxed);
  }

  /// Returns freelisted blocks to the heap (outstanding blocks still
  /// recycle into the pool when released on the owner thread).
  void shrink() { core_->shrink(); }

 private:
  /// The shared state behind every allocator copy. Kept alive past the
  /// Pool (and the owner thread's exit) by the allocators stored in
  /// outstanding control blocks, so a late release never dangles.
  struct Core {
    ~Core() { shrink(); }

    void* alloc_block(std::size_t bytes) {
      MCK_ASSERT_MSG(std::this_thread::get_id() == owner_,
                     "Pool::acquire on a non-owner thread");
      if (block_size_ == 0) block_size_ = bytes;
      // allocate_shared makes exactly one allocation of one node type, so
      // every request through this pool has the same size.
      MCK_ASSERT_MSG(bytes == block_size_, "Pool block size changed");
      if (!free_.empty()) {
        void* b = free_.back();
        free_.pop_back();
        return b;
      }
      ++allocated_;
      return ::operator new(bytes);
    }

    void free_block(void* p, std::size_t bytes) {
      (void)bytes;
      if (std::this_thread::get_id() == owner_) {
        free_.push_back(p);
        return;
      }
      // Foreign thread: recycling into free_ would race the owner. Give
      // the block back to the global heap instead — rare (only payloads
      // handed to another thread) and always safe.
      ::operator delete(p);
      foreign_frees_.fetch_add(1, std::memory_order_relaxed);
    }

    void shrink() {
      for (void* b : free_) ::operator delete(b);
      allocated_ -= free_.size();
      free_.clear();
    }

    const std::thread::id owner_ = std::this_thread::get_id();
    std::size_t block_size_ = 0;
    std::size_t allocated_ = 0;
    std::vector<void*> free_;
    std::atomic<std::uint64_t> foreign_frees_{0};
  };

  template <typename U>
  struct Allocator {
    using value_type = U;
    std::shared_ptr<Core> core;

    explicit Allocator(std::shared_ptr<Core> c) : core(std::move(c)) {}
    template <typename V>
    Allocator(const Allocator<V>& o) : core(o.core) {}  // NOLINT

    U* allocate(std::size_t n) {
      return static_cast<U*>(core->alloc_block(n * sizeof(U)));
    }
    void deallocate(U* p, std::size_t n) {
      core->free_block(p, n * sizeof(U));
    }
    template <typename V>
    bool operator==(const Allocator<V>& o) const { return core == o.core; }
    template <typename V>
    bool operator!=(const Allocator<V>& o) const { return core != o.core; }
  };

  std::shared_ptr<Core> core_;
};

/// Pool-backed replacement for std::make_shared on high-churn message
/// payloads: one thread_local pool per payload type. Zero heap traffic in
/// steady state on the owning thread; a payload released on another
/// thread falls back to the heap, and the pool
/// core stays alive until the last such payload is gone.
template <typename T, typename... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  thread_local Pool<T> pool;
  return pool.acquire(std::forward<Args>(args)...);
}

}  // namespace mck::util
