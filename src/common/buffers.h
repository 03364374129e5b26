#ifndef DISC_COMMON_BUFFERS_H_
#define DISC_COMMON_BUFFERS_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace disc {

/// Stable per-thread shard index in [0, shards), hashed once per thread, so
/// each sharded accumulator (metrics, wall phases, progress) keeps a thread
/// on its own cache line.
inline std::size_t ThisThreadShard(std::size_t shards) {
  static thread_local const std::size_t hashed =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return hashed % shards;
}

/// Maps a WorkStealingPool worker index (CurrentWorkerIndex(); -1 for
/// non-workers) to a PerWorkerBuffer slot: worker w → w, everything else —
/// callers and out-of-range workers — → the last slot.
inline std::size_t SlotForWorker(int worker_index, std::size_t slots) {
  if (worker_index >= 0 &&
      static_cast<std::size_t>(worker_index) + 1 < slots) {
    return static_cast<std::size_t>(worker_index);
  }
  return slots - 1;
}

/// Per-batch buffer of finished items (spans, decision logs): one
/// cache-line-padded slot per pool worker plus one for the calling thread,
/// so hot paths append with a plain vector push and no synchronization.
/// Drain() runs after the pool joins (the RunBatch return is the
/// synchronization point) and returns the items in a deterministic order,
/// whichever worker recorded what.
template <class T>
class PerWorkerBuffer {
 public:
  /// `slots` buffers; use pool->size() + 1 (workers + caller).
  explicit PerWorkerBuffer(std::size_t slots)
      : slots_(std::max<std::size_t>(1, slots)) {}

  /// Appends `item` to buffer `slot`; an out-of-range slot clamps to the
  /// last. Each slot must only ever be written by one thread at a time.
  void Record(std::size_t slot, T item) {
    slots_[std::min(slot, slots_.size() - 1)].items.push_back(
        std::move(item));
  }

  /// Appends `item` to the calling thread's own slot.
  void Record(T item) {
    Record(SlotForWorker(WorkStealingPool::CurrentWorkerIndex(),
                         slots_.size()),
           std::move(item));
  }

  /// Moves every recorded item out, stable-sorted by `less`, leaving the
  /// buffer empty. Call only when no Record() can be in flight.
  template <class Less>
  std::vector<T> Drain(Less less) {
    std::vector<T> all;
    std::size_t total = 0;
    for (const Slot& slot : slots_) total += slot.items.size();
    all.reserve(total);
    for (Slot& slot : slots_) {
      for (T& item : slot.items) all.push_back(std::move(item));
      slot.items.clear();
    }
    std::stable_sort(all.begin(), all.end(), less);
    return all;
  }

 private:
  struct alignas(64) Slot {
    std::vector<T> items;
  };
  std::vector<Slot> slots_;
};

/// Fixed-capacity ring keeping the newest items, read oldest first. Not
/// synchronized: its owners (TraceRecorder, ExplainRecorder, the log ring)
/// guard it with their own mutex.
template <class T>
class RecentRing {
 public:
  explicit RecentRing(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  /// Adds `item`, evicting the oldest once the ring is full. An evicted
  /// slot is assigned in place, so a copied item reuses its capacity.
  template <class U>
  void Push(U&& item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::forward<U>(item));
    } else {
      items_[next_] = std::forward<U>(item);
      next_ = (next_ + 1) % capacity_;
    }
  }

  /// Calls `fn(item)` for every kept item, oldest first.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t k = 0; k < items_.size(); ++k) {
      fn(items_[(next_ + k) % items_.size()]);
    }
  }

  void Clear() {
    items_.clear();
    next_ = 0;
  }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  std::vector<T> items_;  ///< `next_` is the oldest entry once full
  std::size_t next_ = 0;
};

}  // namespace disc

#endif  // DISC_COMMON_BUFFERS_H_
