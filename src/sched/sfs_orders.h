// SFS's two runnable orders as contiguous slot arrays (Section 3.1's start-tag
// and surplus queues).
//
// Section 3.2 names the sorted-list run queues as SFS's constant-factor
// bottleneck; on ~1000 runnable threads nearly all of it is dependent pointer
// chasing.  Both orders here are arrays of `{key, tid, Entity*}` slots, so a
// scan or a reposition walks contiguous memory and touches an entity only to
// read or write its own key:
//
//   * StartTagHeap — an indexed binary min-heap on (start_tag, tid).  The exact
//     algorithm needs only the *minimum* start tag (the virtual time, as in
//     Start-time Fair Queueing), so a heap replaces the fully linked order: a
//     charge is one sift-down, and the heuristic's first-k walks the heap
//     best-first.  Each entity records its slot in Entity::heap_index.
//   * SurplusArray — a vector of slots kept sorted on (surplus, tid).  A slot's
//     key always equals its entity's surplus(); queued surpluses change only
//     through Reposition and Refresh, which keep both in step.
//
// Every key ends in the thread id, so both orders are total and every dispatch
// decision matches the sorted-list queues they replace.

#ifndef SFS_SCHED_SFS_ORDERS_H_
#define SFS_SCHED_SFS_ORDERS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/assert.h"
#include "src/sched/entity.h"
#include "src/sched/types.h"

namespace sfs::sched {

struct OrderSlot {
  double key = 0.0;
  ThreadId tid = kInvalidThread;
  Entity* entity = nullptr;

  // Same order as std::pair<double, ThreadId>.
  friend bool operator<(const OrderSlot& a, const OrderSlot& b) {
    return a.key < b.key || (!(b.key < a.key) && a.tid < b.tid);
  }
};

// Indexed binary min-heap of runnable entities on (start_tag, tid).  Slot keys
// are snapshots of start_tag(): after changing a queued entity's start tag,
// call Update (one entity) or Rebuild (all of them).
class StartTagHeap {
 public:
  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }

  // Entity with the least (start_tag, tid); the heap must not be empty.
  Entity* front() const { return slots_.front().entity; }

  void Insert(Entity& e) {
    slots_.push_back({e.start_tag(), e.tid, &e});
    SiftUp(slots_.size() - 1);
  }

  void Remove(Entity& e) {
    const std::size_t i = IndexOf(e);
    e.heap_index = -1;
    const OrderSlot last = slots_.back();
    slots_.pop_back();
    if (i < slots_.size()) {
      Place(i, last);
      Restore(i);
    }
  }

  // Re-reads e's start tag after it changed.
  void Update(Entity& e) {
    const std::size_t i = IndexOf(e);
    slots_[i].key = e.start_tag();
    Restore(i);
  }

  // Re-reads every start tag and re-establishes the heap property.
  void Rebuild() {
    for (OrderSlot& s : slots_) {
      s.key = s.entity->start_tag();
    }
    for (std::size_t i = slots_.size() / 2; i-- > 0;) {
      SiftDown(i);
    }
  }

  // Calls fn(Entity*) for the `k` least entities, least first; returns the
  // number visited.  A small frontier heap of slot indices expands a node's
  // children only once it is visited, so the walk costs O(k log k).
  template <typename Fn>
  std::size_t ForFirstK(std::size_t k, Fn&& fn) {
    const auto greater = [this](std::size_t a, std::size_t b) { return slots_[b] < slots_[a]; };
    frontier_.clear();
    if (!slots_.empty() && k > 0) {
      frontier_.push_back(0);
    }
    std::size_t visited = 0;
    while (visited < k && !frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end(), greater);
      const std::size_t i = frontier_.back();
      frontier_.pop_back();
      fn(slots_[i].entity);
      ++visited;
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < slots_.size(); ++c) {
        frontier_.push_back(c);
        std::push_heap(frontier_.begin(), frontier_.end(), greater);
      }
    }
    return visited;
  }

  // Calls fn(Entity*) for every entity, in slot (not key) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const OrderSlot& s : slots_) {
      fn(s.entity);
    }
  }

  // Debug check: every slot's key and index match its entity, and no child is
  // less than its parent.
  bool Valid() const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const OrderSlot& s = slots_[i];
      if (s.key != s.entity->start_tag() || s.tid != s.entity->tid ||
          s.entity->heap_index != static_cast<std::int32_t>(i) ||
          (i > 0 && s < slots_[(i - 1) / 2])) {
        return false;
      }
    }
    return true;
  }

 private:
  std::size_t IndexOf(const Entity& e) const {
    SFS_DCHECK(e.heap_index >= 0 && static_cast<std::size_t>(e.heap_index) < slots_.size());
    const auto i = static_cast<std::size_t>(e.heap_index);
    SFS_DCHECK(slots_[i].entity == &e);
    return i;
  }

  void Place(std::size_t i, const OrderSlot& s) {
    slots_[i] = s;
    s.entity->heap_index = static_cast<std::int32_t>(i);
  }

  // Moves slot i up or down to its place after its key changed.
  void Restore(std::size_t i) {
    if (i > 0 && slots_[i] < slots_[(i - 1) / 2]) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  void SiftUp(std::size_t i) {
    const OrderSlot s = slots_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(s < slots_[parent])) {
        break;
      }
      Place(i, slots_[parent]);
      i = parent;
    }
    Place(i, s);
  }

  void SiftDown(std::size_t i) {
    const OrderSlot s = slots_[i];
    const std::size_t n = slots_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && slots_[child + 1] < slots_[child]) {
        ++child;
      }
      if (!(slots_[child] < s)) {
        break;
      }
      Place(i, slots_[child]);
      i = child;
    }
    Place(i, s);
  }

  std::vector<OrderSlot> slots_;
  std::vector<std::size_t> frontier_;  // ForFirstK scratch, reused across calls
};

// Runnable entities sorted ascending on (surplus, tid).
class SurplusArray {
 public:
  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }
  const OrderSlot& operator[](std::size_t i) const { return slots_[i]; }

  // Inserts e under its current surplus().
  void Insert(Entity& e) {
    const OrderSlot s{e.surplus(), e.tid, &e};
    slots_.insert(std::upper_bound(slots_.begin(), slots_.end(), s), s);
  }

  void Remove(const Entity& e) {
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(IndexOf(e)));
  }

  // Sets e's surplus to `surplus` and moves its slot to the matching place,
  // shifting only the slots in between.
  void Reposition(Entity& e, double surplus) {
    const auto from = slots_.begin() + static_cast<std::ptrdiff_t>(IndexOf(e));
    const OrderSlot s{surplus, e.tid, &e};
    e.surplus() = surplus;
    if (s < *from) {
      const auto to = std::upper_bound(slots_.begin(), from, s);
      std::move_backward(to, from, from + 1);
      *to = s;
    } else {
      const auto to = std::upper_bound(from + 1, slots_.end(), s);
      std::move(from + 1, to, from);
      *(to - 1) = s;
    }
  }

  // Sets every surplus to fresh(const Entity&) and restores ascending order.
  // One pass recomputes the keys; a second compacts the ascending run in place
  // and sets aside each slot whose key fell below the running maximum of the
  // slots before it; those are sorted and merged back in from the end.
  // Returns how many were set aside — the count an insertion sort of the same
  // sequence would move.
  template <typename Fresh>
  std::size_t Refresh(Fresh&& fresh) {
    for (OrderSlot& s : slots_) {
      s.key = fresh(*s.entity);
      s.entity->surplus() = s.key;
    }
    broken_.clear();
    std::size_t kept = 0;
    for (const OrderSlot& s : slots_) {
      if (kept > 0 && s < slots_[kept - 1]) {
        broken_.push_back(s);
      } else {
        slots_[kept++] = s;
      }
    }
    if (broken_.empty()) {
      return 0;
    }
    std::sort(broken_.begin(), broken_.end());
    std::size_t out = slots_.size();
    std::size_t b = broken_.size();
    while (b > 0) {
      if (kept > 0 && broken_[b - 1] < slots_[kept - 1]) {
        slots_[--out] = slots_[--kept];
      } else {
        slots_[--out] = broken_[--b];
      }
    }
    return broken_.size();
  }

  // Debug check: slots ascend and every key matches its entity's surplus().
  bool Valid() const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const OrderSlot& s = slots_[i];
      if (s.key != s.entity->surplus() || s.tid != s.entity->tid ||
          (i > 0 && !(slots_[i - 1] < s))) {
        return false;
      }
    }
    return true;
  }

 private:
  std::size_t IndexOf(const Entity& e) const {
    const OrderSlot s{e.surplus(), e.tid, nullptr};
    const auto it = std::lower_bound(slots_.begin(), slots_.end(), s);
    SFS_DCHECK(it != slots_.end() && it->entity == &e);
    return static_cast<std::size_t>(it - slots_.begin());
  }

  std::vector<OrderSlot> slots_;
  std::vector<OrderSlot> broken_;  // Refresh scratch, reused across calls
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SFS_ORDERS_H_
