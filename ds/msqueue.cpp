// Michael-Scott lock-free MPMC queue (Michael & Scott, "Simple, Fast,
// and Practical Non-Blocking and Blocking Concurrent Queue Algorithms",
// PODC 1996): a dummy-headed singly linked list. Enqueue CASes the
// tail's next pointer and then swings tail (helping a lagging tail it
// finds on the way); dequeue CASes head forward to the next node, and
// the winner of that CAS retires the old head — so the node that leaves
// through Guard::retire on a dequeue is the one the *previous* dequeue
// (or the constructor) installed as dummy, and the retire rate equals
// the dequeue rate exactly.
// Traversals are one Guard, protect() per hop across two slots (head in
// slot 0, its successor in slot 1, so the dereferenced node is always
// covered), a tail/head consistency re-check after every protect, and a
// validate() poll for NBR neutralization.
#include <atomic>
#include <cstdint>
#include <memory>

#include "ds/queue.hpp"

namespace emr::ds {
namespace {

struct Node {
  smr::NodeHeader hdr;
  std::uint64_t value;
  std::atomic<Node*> next;
  // Pad to a cache line so adjacent queue nodes never false-share the
  // hot next pointers.
  char pad[64 - sizeof(smr::NodeHeader) - sizeof(std::uint64_t) -
           sizeof(std::atomic<Node*>)];

  explicit Node(std::uint64_t v) : value(v), next(nullptr) {}
};
static_assert(sizeof(Node) == 64);
static_assert(std::is_standard_layout_v<Node>);

class MsQueue final : public ConcurrentQueue {
 public:
  MsQueue(const QueueConfig& cfg, smr::Reclaimer* r)
      : r_(r), cap_(cfg.capacity) {
    // Construction is single-threaded, so the dummy comes from a
    // transient handle (released before any worker registers).
    smr::ThreadHandle h = r_->register_thread();
    Node* dummy = smr::make_node<Node>(h, 0);
    head_.store(dummy, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  ~MsQueue() override {
    // Single-threaded teardown: everything the queue still owns — the
    // current dummy plus any undequeued values — is one next-chain walk
    // from head. The cursor degrades gracefully when the slot table is
    // exhausted (destructors must not throw).
    smr::TeardownCursor td(*r_);
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      td.dealloc(n);
      n = next;
    }
  }

  bool enqueue(smr::ThreadHandle& h, std::uint64_t value) override {
    smr::Guard g(h);
    // Soft capacity: refuse before allocating, so a full queue costs no
    // node churn (the counter is approximate under concurrency, which
    // is all a backpressure check needs).
    if (cap_ != 0 &&
        size_.load(std::memory_order_relaxed) >=
            static_cast<std::int64_t>(cap_)) {
      return false;
    }
    Node* n = smr::make_node<Node>(h, value);
    for (;;) {
      Node* tail = g.protect(0, tail_);
      if (!g.validate()) continue;  // NBR: re-read from the root
      Node* next = tail->next.load(std::memory_order_acquire);
      if (tail != tail_.load(std::memory_order_acquire)) continue;
      if (next != nullptr) {
        // Tail is lagging: help swing it, then retry.
        tail_.compare_exchange_strong(tail, next,
                                      std::memory_order_acq_rel);
        continue;
      }
      Node* expected = nullptr;
      if (tail->next.compare_exchange_strong(expected, n,
                                             std::memory_order_acq_rel)) {
        // Link succeeded; swinging tail is cooperative (a rival enqueue
        // or dequeue may already have helped).
        tail_.compare_exchange_strong(tail, n, std::memory_order_acq_rel);
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }

  bool dequeue(smr::ThreadHandle& h, std::uint64_t* out) override {
    smr::Guard g(h);
    for (;;) {
      Node* head = g.protect(0, head_);
      if (!g.validate()) continue;
      // Hand-over-hand: head stays protected in slot 0 while its
      // successor is published in slot 1.
      Node* next = g.protect(1, head->next);
      Node* tail = tail_.load(std::memory_order_acquire);
      if (head != head_.load(std::memory_order_acquire)) continue;
      if (!g.validate()) continue;
      if (next == nullptr) return false;  // dummy is last: empty
      if (head == tail) {
        // Non-empty but tail still points at the dummy: help the
        // in-flight enqueue swing it before consuming.
        tail_.compare_exchange_strong(tail, next,
                                      std::memory_order_acq_rel);
        continue;
      }
      // Read the value BEFORE the head CAS: after the CAS the old head
      // is retired and `next` becomes the new dummy another dequeuer
      // may immediately retire in turn.
      const std::uint64_t value = next->value;
      Node* expected = head;
      if (head_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel)) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        g.retire(head);  // only the CAS winner retires, exactly once
        *out = value;
        return true;
      }
    }
  }

  const char* name() const override { return "msqueue"; }
  std::size_t node_size() const override { return sizeof(Node); }

 private:
  smr::Reclaimer* r_;
  const std::uint64_t cap_;
  // One cache line each: consumers CAS head_, producers CAS tail_, and
  // both sides bump size_ — sharing a line would make every enqueue
  // and dequeue pull it away from the other role.
  alignas(64) std::atomic<Node*> head_;
  alignas(64) std::atomic<Node*> tail_;
  // Signed so a transient dequeue-side undershoot never wraps the
  // capacity check.
  alignas(64) std::atomic<std::int64_t> size_{0};
};

}  // namespace

std::unique_ptr<ConcurrentQueue> make_msqueue(const QueueConfig& cfg,
                                              smr::Reclaimer* r) {
  return std::make_unique<MsQueue>(cfg, r);
}

std::size_t msqueue_node_size() { return sizeof(Node); }

}  // namespace emr::ds
