// MpscMailbox — an unbounded multi-producer / single-consumer message queue
// for cross-shard event delivery in the multi-worker simulation engine.
//
// Vyukov-style intrusive MPSC: producers push with one exchange on an atomic
// head (wait-free, no CAS loop), the consumer walks a plain singly linked list
// from a stub node.  The consumer observes messages from any one producer in
// that producer's push order (per-producer FIFO), which is the only ordering
// the epoch protocol needs: sim::Engine (workers > 1) drains each
// (source, target) mailbox with a single source, so the drain order is total
// and deterministic.
//
// DrainAll() detaches everything pushed before the call in one pass; messages
// pushed concurrently with a drain are either delivered by it or survive
// intact for the next one (no loss, no duplication).  Nodes are heap-allocated
// per message — cross-shard messages are the rare path (zero for partitioned
// policies), so a pooled allocator would be speculative complexity.

#ifndef SFS_COMMON_MPSC_MAILBOX_H_
#define SFS_COMMON_MPSC_MAILBOX_H_

#include <atomic>
#include <utility>

namespace sfs::common {

template <typename T>
class MpscMailbox {
 public:
  MpscMailbox() : head_(&stub_), tail_(&stub_) {}

  MpscMailbox(const MpscMailbox&) = delete;
  MpscMailbox& operator=(const MpscMailbox&) = delete;

  ~MpscMailbox() {
    DrainAll([](T&&) {});
    if (tail_ != &stub_) {
      delete tail_;  // the last consumed node is retained as the list anchor
    }
  }

  // Producer side: enqueue a message.  Safe from any thread, any number of
  // concurrent callers.
  void Push(T value) {
    Node* node = new Node(std::move(value));
    // Publish the node, then link the previous head to it.  Between the
    // exchange and the store the chain is momentarily broken; the consumer
    // sees a null next on the old head and stops there — the message is
    // simply not visible yet, never lost.
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  // Consumer side (single thread): invokes `fn(std::move(value))` for every
  // message visible at the time of the call, in per-producer push order.
  // Returns the number delivered.
  template <typename Fn>
  std::size_t DrainAll(Fn&& fn) {
    std::size_t drained = 0;
    Node* node = tail_->next.load(std::memory_order_acquire);
    while (node != nullptr) {
      if (tail_ != &stub_) {
        delete tail_;
      }
      tail_ = node;
      fn(std::move(node->value));
      ++drained;
      node = tail_->next.load(std::memory_order_acquire);
    }
    return drained;
  }

  // Consumer-side emptiness probe: true when no message is currently visible.
  // A concurrent Push may make it stale immediately; the epoch barrier
  // guarantees quiescence where the engine relies on it.
  bool Empty() const { return tail_->next.load(std::memory_order_acquire) == nullptr; }

 private:
  struct Node {
    Node() = default;
    explicit Node(T&& v) : value(std::move(v)) {}
    T value{};
    std::atomic<Node*> next{nullptr};
  };

  std::atomic<Node*> head_;  // most recently pushed node (producers)
  Node* tail_;               // consumption cursor (consumer only)
  Node stub_;                // permanent list anchor; never carries a value
};

}  // namespace sfs::common

#endif  // SFS_COMMON_MPSC_MAILBOX_H_
