#include "netbase/pool.h"

#include <mutex>
#include <vector>

namespace xmap::net {

// Process-lifetime graveyard: the arenas of exited threads, each waiting
// whole for one later pool to adopt it. Allocated once and never destroyed
// — keeps the memory valid for any block that outlives its allocating
// thread, keeps it reachable for leak checkers, and dodges
// static-destruction-order races with main-thread thread_locals.
struct BytePool::Graveyard {
  std::mutex mu;
  std::vector<Arena> arenas;
};

BytePool::Graveyard& BytePool::graveyard() {
  static auto* g = new Graveyard;
  return *g;
}

BytePool::BytePool() {
  Graveyard& g = graveyard();
  std::lock_guard lock{g.mu};
  if (g.arenas.empty()) return;
  a_ = g.arenas.back();
  g.arenas.pop_back();
  stats_.retained_bytes = a_.retained_bytes;
}

BytePool::~BytePool() {
  a_.retained_bytes = stats_.retained_bytes;
  bool empty = a_.chunks == nullptr;
  for (const Block* b : a_.free) empty = empty && b == nullptr;
  if (empty) return;
  Graveyard& g = graveyard();
  std::lock_guard lock{g.mu};
  g.arenas.push_back(a_);
}

void BytePool::grab_chunk() {
  // Fresh bump space always comes from the heap: the bump remainder is the
  // only free space inside a chunk, and it travels with the arena.
  void* p = ::operator new(kChunkBytes);
  ++stats_.heap_allocs;
  stats_.retained_bytes += kChunkBytes;
  Chunk* ch = static_cast<Chunk*>(p);
  ch->next = a_.chunks;
  a_.chunks = ch;
  a_.bump = static_cast<std::uint8_t*>(p) + 16;  // skip the chunk header
  a_.bump_left = kChunkBytes - 16;
}

void* BytePool::grab_large(std::size_t csize) {
  void* p = ::operator new(csize);
  ++stats_.heap_allocs;
  stats_.retained_bytes += csize;
  return p;
}

}  // namespace xmap::net
