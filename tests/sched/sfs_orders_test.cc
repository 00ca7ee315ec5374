// SFS's slot-array orders against reference containers.
//
//   * StartTagHeap must agree with an ordered std::set of (start_tag, tid)
//     under random inserts, removals, key increases and decreases and uniform
//     rebases: same minimum, and a best-first first-k walk that visits exactly
//     the set's first k elements in order.
//   * SurplusArray must agree with a common::SortedList on the same
//     (surplus, tid) key: same order after every insert, removal and
//     reposition in either direction, and after a refresh the same order and
//     the same moved count as SortedList::Resort() on identical keys.
//
// Keys are drawn from small integer ranges so equal keys — broken by tid — are
// common.

#include "src/sched/sfs_orders.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/common/sorted_list.h"

namespace sfs::sched {
namespace {

constexpr int kPoolSize = 64;

struct BySurplusThenTid {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.surplus(), e.tid}; }
};
using SurplusOracle = common::SortedList<Entity, &Entity::by_rq, BySurplusThenTid>;

void AssignTids(std::vector<Entity>& pool) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].tid = static_cast<ThreadId>(i);
  }
}

std::vector<ThreadId> Tids(const SurplusArray& array) {
  std::vector<ThreadId> tids;
  for (std::size_t i = 0; i < array.size(); ++i) {
    tids.push_back(array[i].entity->tid);
  }
  return tids;
}

std::vector<ThreadId> Tids(SurplusOracle& oracle) {
  std::vector<ThreadId> tids;
  for (Entity* e = oracle.front(); e != nullptr; e = oracle.next(e)) {
    tids.push_back(e->tid);
  }
  return tids;
}

TEST(StartTagHeapTest, RandomOpsMatchOrderedSet) {
  std::vector<Entity> pool(kPoolSize);
  AssignTids(pool);
  StartTagHeap heap;
  std::set<std::pair<double, ThreadId>> oracle;
  std::vector<bool> queued(kPoolSize, false);
  auto key = [](const Entity& e) { return std::make_pair(e.start_tag(), e.tid); };
  common::Rng rng(12);

  for (int step = 0; step < 20000; ++step) {
    const auto idx = static_cast<std::size_t>(rng.NextBounded(kPoolSize));
    Entity& e = pool[idx];
    const double delta = static_cast<double>(rng.UniformInt(1, 6));
    if (!queued[idx]) {
      e.start_tag() = static_cast<double>(rng.UniformInt(0, 15));
      heap.Insert(e);
      oracle.insert(key(e));
      queued[idx] = true;
    } else {
      switch (rng.NextBounded(4)) {
        case 0:
          heap.Remove(e);
          oracle.erase(key(e));
          queued[idx] = false;
          EXPECT_EQ(e.heap_index, -1);
          break;
        case 1:  // a charge: the tag grows
          oracle.erase(key(e));
          e.start_tag() += delta;
          heap.Update(e);
          oracle.insert(key(e));
          break;
        case 2:
          oracle.erase(key(e));
          e.start_tag() -= delta;
          heap.Update(e);
          oracle.insert(key(e));
          break;
        default: {  // a rebase: every queued tag shifts by the same amount
          oracle.clear();
          for (std::size_t i = 0; i < pool.size(); ++i) {
            if (queued[i]) {
              pool[i].start_tag() -= delta;
              oracle.insert(key(pool[i]));
            }
          }
          heap.Rebuild();
          break;
        }
      }
    }

    ASSERT_EQ(heap.size(), oracle.size()) << "step " << step;
    ASSERT_TRUE(heap.Valid()) << "step " << step;
    if (!oracle.empty()) {
      ASSERT_EQ(heap.front()->tid, oracle.begin()->second) << "step " << step;
    }
    const auto k = static_cast<std::size_t>(rng.NextBounded(12));
    std::vector<ThreadId> walked;
    const std::size_t visited = heap.ForFirstK(k, [&](Entity* x) { walked.push_back(x->tid); });
    std::vector<ThreadId> expected;
    for (auto it = oracle.begin(); it != oracle.end() && expected.size() < k; ++it) {
      expected.push_back(it->second);
    }
    ASSERT_EQ(visited, expected.size()) << "step " << step;
    ASSERT_EQ(walked, expected) << "step " << step << " k " << k;
  }
}

TEST(StartTagHeapTest, RebuildBreaksNewTiesByTid) {
  // A shift can round two distinct tags onto the same value (2^53 + 3 and
  // 2^53 + 5 both round to 2^53 + 4); the rebuilt heap must then order them
  // by tid, as a fresh (start_tag, tid) sort would.
  std::vector<Entity> pool(2);
  AssignTids(pool);
  StartTagHeap heap;
  const double base = 9007199254740992.0;  // 2^53
  pool[0].start_tag() = base + 6.0;
  pool[1].start_tag() = base + 4.0;
  heap.Insert(pool[0]);
  heap.Insert(pool[1]);
  ASSERT_EQ(heap.front()->tid, 1);
  for (Entity& e : pool) {
    e.start_tag() -= 1.0;
  }
  ASSERT_EQ(pool[0].start_tag(), pool[1].start_tag());
  heap.Rebuild();
  EXPECT_TRUE(heap.Valid());
  EXPECT_EQ(heap.front()->tid, 0);
}

TEST(SurplusArrayTest, TiesBreakByTid) {
  std::vector<Entity> pool(4);
  AssignTids(pool);
  SurplusArray array;
  for (const int i : {2, 0, 3, 1}) {
    pool[static_cast<std::size_t>(i)].surplus() = 5.0;
    array.Insert(pool[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(Tids(array), (std::vector<ThreadId>{0, 1, 2, 3}));
  // Onto an equal key from either side: the tid decides the place.
  array.Reposition(pool[3], 1.0);
  array.Reposition(pool[0], 9.0);
  EXPECT_EQ(Tids(array), (std::vector<ThreadId>{3, 1, 2, 0}));
  array.Reposition(pool[3], 5.0);
  array.Reposition(pool[0], 5.0);
  EXPECT_EQ(Tids(array), (std::vector<ThreadId>{0, 1, 2, 3}));
  EXPECT_TRUE(array.Valid());
}

TEST(SurplusArrayTest, RefreshMovesExactlyTheSlotsBelowTheRunningMax) {
  std::vector<Entity> pool(5);
  AssignTids(pool);
  SurplusArray array;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].surplus() = static_cast<double>(i);
    array.Insert(pool[i]);
  }
  // New keys in slot order: 1, 5, 2, 3, 7.  The running maximum reaches 5 at
  // tid 1, so tids 2 and 3 move; tid 4 (7) extends the run.
  const std::vector<double> fresh = {1.0, 5.0, 2.0, 3.0, 7.0};
  const std::size_t moved =
      array.Refresh([&](const Entity& e) { return fresh[static_cast<std::size_t>(e.tid)]; });
  EXPECT_EQ(moved, 2u);
  EXPECT_EQ(Tids(array), (std::vector<ThreadId>{0, 2, 3, 1, 4}));
  EXPECT_TRUE(array.Valid());
}

TEST(SurplusArrayTest, RandomOpsMatchSortedList) {
  std::vector<Entity> pool(kPoolSize);
  AssignTids(pool);
  std::vector<double> phi(kPoolSize);
  SurplusArray array;
  SurplusOracle oracle;
  std::vector<bool> queued(kPoolSize, false);
  common::Rng rng(34);
  std::size_t total_moved = 0;

  for (int step = 0; step < 20000; ++step) {
    const auto idx = static_cast<std::size_t>(rng.NextBounded(kPoolSize));
    Entity& e = pool[idx];
    const double delta = static_cast<double>(rng.UniformInt(1, 6));
    if (!queued[idx]) {
      e.surplus() = static_cast<double>(rng.UniformInt(-8, 8));
      phi[idx] = static_cast<double>(rng.UniformInt(1, 3));
      array.Insert(e);
      oracle.Insert(&e);
      queued[idx] = true;
    } else {
      switch (rng.NextBounded(5)) {
        case 0:
          array.Remove(e);
          oracle.Remove(&e);
          queued[idx] = false;
          break;
        case 1:  // up, as after a charge
          array.Reposition(e, e.surplus() + delta);
          oracle.Reposition(&e);
          break;
        case 2:  // down, as after a warp
          array.Reposition(e, e.surplus() - delta);
          oracle.Reposition(&e);
          break;
        case 3: {  // onto another slot's key: a tie broken by tid
          const double target = array[static_cast<std::size_t>(rng.NextBounded(array.size()))].key;
          array.Reposition(e, target);
          oracle.Reposition(&e);
          break;
        }
        default: {  // a refresh: alpha -= phi * dv, plus the odd jump
          const double dv = static_cast<double>(rng.UniformInt(0, 3));
          std::vector<double> fresh(kPoolSize);
          for (std::size_t i = 0; i < pool.size(); ++i) {
            fresh[i] = pool[i].surplus() - phi[i] * dv;
            if (rng.Bernoulli(0.05)) {
              fresh[i] += static_cast<double>(rng.UniformInt(-4, 4));
            }
          }
          const std::size_t moved = array.Refresh(
              [&](const Entity& x) { return fresh[static_cast<std::size_t>(x.tid)]; });
          // Refresh wrote the new keys into the entities, so the oracle resorts
          // the same keys from the same starting order.
          ASSERT_EQ(moved, oracle.Resort()) << "step " << step;
          total_moved += moved;
          break;
        }
      }
    }

    ASSERT_TRUE(array.Valid()) << "step " << step;
    ASSERT_EQ(Tids(array), Tids(oracle)) << "step " << step;
    if (!array.empty()) {
      ASSERT_EQ(array[0].entity, oracle.front()) << "step " << step;
    }
  }
  EXPECT_GT(total_moved, 0u);
  oracle.Clear();
}

}  // namespace
}  // namespace sfs::sched
