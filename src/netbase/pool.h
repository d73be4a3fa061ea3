// Thread-local size-class pool allocator for the packet hot path.
//
// Every probe send allocates a packet buffer, every hop simulation copies
// one, and every scheduled event stores a closure — at millions of probes
// per second those global-heap round trips dominate. BytePool gives each
// thread a bump arena carved into power-of-two size classes with per-class
// free lists: after a warm-up pass the steady-state scan path recycles
// blocks without ever calling ::operator new (asserted by the
// counting-allocator test in tests/sim/alloc_free_scan_test.cc).
//
// Memory model:
//  - Small blocks (<= 4 KiB) are carved from 256 KiB arena chunks owned by
//    the allocating thread's pool.
//  - Large blocks get an exact power-of-two allocation, recycled through
//    the same per-class free lists.
//  - When a thread exits, its whole arena (free lists, chunks and bump
//    remainder) moves to a global graveyard; a later thread (e.g. the next
//    scan's worker) adopts one whole arena when its pool is created, so W
//    exiting workers warm W successors. Pool memory is process-retained,
//    so a rare block that outlives its allocating thread (none on the
//    scan path today) stays valid — memory is never returned to the OS
//    mid-process.
//  - Blocks freed on a different thread than they were allocated on simply
//    join the freeing thread's free list; safe because the backing chunks
//    are never released.
//
// The pool is deliberately not a general-purpose malloc: no headers on
// small blocks (the size class is recomputed from the size argument, which
// allocator-aware containers always pass back), no shrinking, no
// thread-shared fast path.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/compiler.h"

namespace xmap::net {

class BytePool {
 public:
  // Cumulative per-thread counters (monotonic; wall-clock artifacts — the
  // warm-up state of a thread's pool depends on what ran before, so these
  // must only feed wall_clock-flagged metrics).
  struct Stats {
    std::uint64_t alloc_calls = 0;    // allocate() invocations
    std::uint64_t recycled = 0;       // served from a free list
    std::uint64_t heap_allocs = 0;    // fell through to ::operator new
    std::uint64_t retained_bytes = 0; // chunk + large-block bytes owned
  };

  [[nodiscard]] static BytePool& local() {
    thread_local BytePool pool;
    return pool;
  }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    ++stats_.alloc_calls;
    const int c = class_for(bytes);
    if (XMAP_UNLIKELY(c >= kClasses)) {
      ++stats_.heap_allocs;
      return ::operator new(bytes);
    }
    if (XMAP_LIKELY(a_.free[c] != nullptr)) {
      Block* b = a_.free[c];
      a_.free[c] = b->next;
      ++stats_.recycled;
      return b;
    }
    const std::size_t csize = std::size_t{1} << (c + kMinShift);
    if (csize <= kSmallMax) {
      if (XMAP_UNLIKELY(a_.bump_left < csize)) grab_chunk();
      void* p = a_.bump;
      a_.bump += csize;
      a_.bump_left -= csize;
      return p;
    }
    return grab_large(csize);
  }

  void deallocate(void* p, std::size_t bytes) {
    const int c = class_for(bytes);
    if (XMAP_UNLIKELY(c >= kClasses)) {
      ::operator delete(p);
      return;
    }
    Block* b = static_cast<Block*>(p);
    b->next = a_.free[c];
    a_.free[c] = b;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  ~BytePool();

 private:
  BytePool();  // adopts a graveyard arena, if any
  BytePool(const BytePool&) = delete;
  BytePool& operator=(const BytePool&) = delete;

  static constexpr int kMinShift = 4;              // smallest class: 16 B
  static constexpr int kClasses = 25;              // largest: 16 B << 24 = 256 MiB
  static constexpr std::size_t kSmallMax = 4096;   // carved from arena chunks
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  struct Block {
    Block* next;
  };
  struct Chunk {
    Chunk* next;
  };
  // Everything a pool owns; the unit an exiting thread hands on.
  struct Arena {
    Block* free[kClasses] = {};
    Chunk* chunks = nullptr;  // owned arena chunks (kept reachable)
    std::uint8_t* bump = nullptr;
    std::size_t bump_left = 0;
    std::uint64_t retained_bytes = 0;  // Stats::retained_bytes at exit
  };

  [[nodiscard]] static int class_for(std::size_t bytes) {
    const std::size_t n = bytes < 16 ? 16 : std::bit_ceil(bytes);
    return std::bit_width(n) - 1 - kMinShift;
  }

  struct Graveyard;
  [[nodiscard]] static Graveyard& graveyard();

  void grab_chunk();
  void* grab_large(std::size_t csize);

  Arena a_;
  Stats stats_;
};

// Standard-library allocator over the thread-local pool. Stateless: any
// instance deallocates into the current thread's pool.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(BytePool::local().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BytePool::local().deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

// Pool-backed container aliases for hot-path state.
template <typename T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

template <typename K>
using PoolSet =
    std::unordered_set<K, std::hash<K>, std::equal_to<K>, PoolAllocator<K>>;

template <typename K, typename V>
using PoolMap = std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                                   PoolAllocator<std::pair<const K, V>>>;

}  // namespace xmap::net
