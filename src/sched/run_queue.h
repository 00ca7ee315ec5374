// Pluggable run-queue backend for the GPS scheduler family.
//
// Section 3.2 identifies the sorted-list run queues as the scheduler's
// constant-factor bottleneck and notes the insert position could be found in
// O(log t).  RunQueue keeps the paper-faithful common::SortedList as the
// default backend and offers common::IndexedSkipList as the O(log t)
// alternative, selected per scheduler via SchedConfig::queue_backend.
//
// Determinism contract (shared by both backends, relied on by every scheduler
// and the cross-backend differential tests):
//   * ascending key order with FIFO among equal keys, for Insert and
//     InsertFromBack alike;
//   * every scheduler key ends in a ThreadId tie-break, so queue order — and
//     therefore every dispatch decision — is a total order independent of the
//     backend;
//   * Remove/Reposition accept elements whose key was already mutated (the
//     tag-update-then-reposition pattern of OnCharge).
//
// The backend must be selected while the queue is empty; schedulers do so in
// their constructors.

#ifndef SFS_SCHED_RUN_QUEUE_H_
#define SFS_SCHED_RUN_QUEUE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/assert.h"
#include "src/common/skip_list.h"
#include "src/common/sorted_list.h"
#include "src/sched/types.h"

namespace sfs::sched {

// KeyFn: struct with `static KeyType Key(const T&)`; KeyType must be totally
// ordered (in practice a std::pair ending in the thread id).
template <typename T, common::ListHook T::*Hook, typename KeyFn>
class RunQueue {
 public:
  RunQueue() = default;

  // Selects the backend; only valid while the queue is empty.  The skip list
  // is only materialized when selected, so default (sorted-list) queues pay
  // nothing for the alternative.
  void SetBackend(QueueBackend backend) {
    SFS_CHECK(empty());
    backend_ = backend;
    if (sorted()) {
      skip_.reset();
    } else if (skip_ == nullptr) {
      skip_ = std::make_unique<common::IndexedSkipList<T, Hook, KeyFn>>();
    }
  }
  QueueBackend backend() const { return backend_; }

  bool empty() const { return sorted() ? list_.empty() : skip_->empty(); }
  std::size_t size() const { return sorted() ? list_.size() : skip_->size(); }

  T* front() { return sorted() ? list_.front() : skip_->front(); }
  const T* front() const { return sorted() ? list_.front() : skip_->front(); }
  T* back() { return sorted() ? list_.back() : skip_->back(); }
  const T* back() const { return sorted() ? list_.back() : skip_->back(); }

  bool contains(const T* elem) const {
    return sorted() ? list_.contains(elem) : skip_->contains(elem);
  }

  T* next(T* elem) { return sorted() ? list_.next(elem) : skip_->next(elem); }
  T* prev(T* elem) { return sorted() ? list_.prev(elem) : skip_->prev(elem); }
  const T* next(const T* elem) const { return sorted() ? list_.next(elem) : skip_->next(elem); }
  const T* prev(const T* elem) const { return sorted() ? list_.prev(elem) : skip_->prev(elem); }

  // Inserts keeping ascending key order; equal keys land after existing ones.
  void Insert(T* elem) {
    if (sorted()) {
      list_.Insert(elem);
    } else {
      skip_->Insert(elem);
    }
  }

  // Hint-from-the-back insert: same resulting position as Insert (FIFO among
  // ties), cheaper on the sorted list when the key is likely large.  The skip
  // list needs no hint.
  void InsertFromBack(T* elem) {
    if (sorted()) {
      list_.InsertFromBack(elem);
    } else {
      skip_->Insert(elem);
    }
  }

  void Remove(T* elem) {
    if (sorted()) {
      list_.Remove(elem);
    } else {
      skip_->Remove(elem);
    }
  }

  T* PopFront() { return sorted() ? list_.PopFront() : skip_->PopFront(); }

  void Clear() {
    if (sorted()) {
      list_.Clear();
    } else {
      skip_->Clear();
    }
  }

  // Re-establishes sorted order after arbitrary key changes; returns how many
  // elements were repositioned.  The sorted list insertion-sorts in place
  // (near-linear on almost-sorted input); the skip list keeps the greedy
  // ascending run where it stands (reusing those nodes) and re-inserts only
  // the elements that break it — also near-linear when almost sorted.  Both
  // yield the identical ascending FIFO-among-ties order of a stable sort, and
  // the identical count: an element is repositioned exactly when its key
  // dropped below the running maximum of the elements before it, so every
  // equal-key run that survives keeps its relative order and re-inserts file
  // after their surviving ties.
  std::size_t Resort() {
    if (sorted()) {
      return list_.Resort();
    }
    std::vector<T*> out;
    const T* kept = nullptr;
    T* cur = skip_->front();
    while (cur != nullptr) {
      T* following = skip_->next(cur);
      if (kept != nullptr && KeyFn::Key(*cur) < KeyFn::Key(*kept)) {
        skip_->Remove(cur);  // locates by stored key; structure stays consistent
        out.push_back(cur);
      } else {
        kept = cur;
      }
      cur = following;
    }
    skip_->SyncKeys();
    for (T* elem : out) {
      skip_->Insert(elem);
    }
    return out.size();
  }

  // Repositions a single element whose key changed.
  void Reposition(T* elem) {
    Remove(elem);
    Insert(elem);
  }

  // Visits the first / last `k` elements in key order; returns the count.
  template <typename Fn>
  std::size_t ForFirstK(std::size_t k, Fn&& fn) {
    return sorted() ? list_.ForFirstK(k, fn) : skip_->ForFirstK(k, fn);
  }

  template <typename Fn>
  std::size_t ForLastK(std::size_t k, Fn&& fn) {
    return sorted() ? list_.ForLastK(k, fn) : skip_->ForLastK(k, fn);
  }

  // Debug helper: true iff current keys are in non-decreasing order.
  bool IsSorted() { return sorted() ? list_.IsSorted() : skip_->IsSorted(); }

 private:
  bool sorted() const { return backend_ == QueueBackend::kSortedList; }

  QueueBackend backend_ = QueueBackend::kSortedList;
  common::SortedList<T, Hook, KeyFn> list_;
  // Materialized only for the skip-list backend (SetBackend).
  std::unique_ptr<common::IndexedSkipList<T, Hook, KeyFn>> skip_;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_RUN_QUEUE_H_
