// BytePool hands an exiting thread's whole arena to one later thread: a
// run of W workers that ends leaves W warm arenas, so every worker of the
// next run starts warm instead of one taking every free block and the rest
// carving fresh chunks (which grew a many-run process by (W-1)/W of a
// run's pool footprint per run).
#include <gtest/gtest.h>

#include <barrier>
#include <cstddef>
#include <thread>
#include <vector>

#include "netbase/pool.h"

namespace xmap::net {
namespace {

constexpr int kWorkers = 3;
constexpr int kRounds = 4;
constexpr std::size_t kBlocks = 20'000;
constexpr std::size_t kBlockBytes = 64;

TEST(BytePool, EveryWorkerOfALaterRoundRunsOnAnAdoptedArena) {
  for (int round = 0; round < kRounds; ++round) {
    std::barrier sync{kWorkers};
    std::vector<BytePool::Stats> stats(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        sync.arrive_and_wait();  // every worker's pool is created at once
        BytePool& pool = BytePool::local();
        std::vector<void*> blocks(kBlocks);
        for (void*& b : blocks) b = pool.allocate(kBlockBytes);
        sync.arrive_and_wait();  // every worker holds its peak at once
        for (void* b : blocks) pool.deallocate(b, kBlockBytes);
        stats[static_cast<std::size_t>(w)] = pool.stats();
      });
    }
    for (std::thread& t : workers) t.join();
    if (round == 0) continue;  // the first round warms the graveyard
    for (int w = 0; w < kWorkers; ++w) {
      const BytePool::Stats& s = stats[static_cast<std::size_t>(w)];
      EXPECT_EQ(s.heap_allocs, 0u) << "round " << round << " worker " << w;
      EXPECT_EQ(s.recycled, kBlocks) << "round " << round << " worker " << w;
      EXPECT_GE(s.retained_bytes, kBlocks * kBlockBytes)
          << "round " << round << " worker " << w;
    }
  }
}

}  // namespace
}  // namespace xmap::net
