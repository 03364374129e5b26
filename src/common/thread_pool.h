#ifndef DISC_COMMON_THREAD_POOL_H_
#define DISC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace disc {

/// Fixed-size thread pool with a bounded FIFO task queue.
///
/// Deliberately work-stealing-free: all workers pop from one shared queue
/// under a single mutex. The saving workload this pool exists for (one
/// branch-and-bound search per outlier, milliseconds to seconds each) is far
/// too coarse for queue contention to matter, and a single FIFO keeps the
/// execution order — and therefore profiles and logs — easy to reason about.
///
/// The queue is bounded: Submit() blocks once `queue_capacity` tasks are
/// waiting, providing natural backpressure when a producer enqueues faster
/// than the workers drain (e.g. submitting one task per outlier of a huge
/// batch). Tasks are wrapped in std::packaged_task, so an exception thrown
/// inside a task is captured and rethrown from the corresponding future —
/// it never unwinds through a worker thread.
///
/// Thread-safety: Submit() may be called concurrently from any thread.
/// Shutdown() must not race with itself (the destructor is the usual
/// caller). Submitting from inside a task is safe as long as the queue is
/// not full — a full queue would then deadlock, so don't build recursive
/// fan-out on a bounded pool.
class ThreadPool {
 public:
  /// Queue capacity used when none is given. Large enough that batch
  /// producers rarely block, small enough to bound memory when they do.
  static constexpr std::size_t kDefaultQueueCapacity = 1024;

  /// Starts `num_threads` workers (at least 1). `queue_capacity` bounds the
  /// number of not-yet-started tasks (at least 1).
  explicit ThreadPool(std::size_t num_threads,
                      std::size_t queue_capacity = kDefaultQueueCapacity);

  /// Calls Shutdown(): runs every task already queued, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result. Blocks while the
  /// queue is at capacity. After Shutdown() the task is rejected and the
  /// returned future reports std::future_errc::broken_promise.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Stops accepting new tasks, finishes everything already queued, joins
  /// the workers. Idempotent; invoked by the destructor.
  void Shutdown();

  /// Worker count for CPU-bound work: hardware concurrency, at least 1.
  static std::size_t DefaultThreadCount();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  const std::size_t queue_capacity_;
  std::mutex mutex_;
  std::condition_variable not_empty_;  ///< signalled: task queued or stopping
  std::condition_variable not_full_;   ///< signalled: queue slot freed
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Work-stealing pool for batches of independent, cost-skewed tasks (the
/// per-outlier DISC searches of DiscSaver::SaveAll) plus nested data
/// parallelism inside a task (the chunked O(n) bound scans of BoundsEngine).
///
/// Scheduling policy:
///  - RunBatch distributes the caller-ordered indices round-robin across
///    per-worker deques, hardest first: worker w's deque holds order[w],
///    order[w + W], ... in that priority order.
///  - Each worker pops its OWN deque from the FRONT (its hardest remaining
///    task), so the expensive searches start as early as possible and
///    cannot all pile up at the end of the batch.
///  - An idle worker STEALS from the BACK of a victim deque (the victim's
///    cheapest queued task), scanning victims round-robin from its own
///    index. Stealing the back minimizes contention with the owner and
///    takes the work the owner would reach last.
///  - A worker with no batch work serves nested chunks (ParallelFor) from
///    any in-flight task group, so late stragglers use idle cores.
///
/// Determinism: scheduling never reorders *results* — RunBatch callers
/// write into per-index slots and merge by input order, and ParallelFor
/// chunk boundaries are a pure function of (range, grain), with each chunk
/// writing its own slot. Which thread runs what is nondeterministic; what
/// is computed is not.
///
/// Synchronization is one pool-wide mutex guarding the deques, the nested
/// group list and the completion counts. The tasks this pool schedules are
/// coarse (milliseconds per search, tens of microseconds per nested chunk),
/// so a single uncontended lock costs nothing measurable, keeps the
/// owner/thief deque ends trivially correct, and is TSan-clean by
/// construction. The *policy* above — per-worker deques, owner-front,
/// steal-back, cost-ordered — is what delivers the scaling.
///
/// Thread-safety: RunBatch and ParallelFor may be called concurrently from
/// any threads (including from inside a running batch task, for
/// ParallelFor). The destructor must not race with in-flight calls.
class WorkStealingPool {
 public:
  /// Cumulative scheduler telemetry (monotone; see stats()).
  struct SchedStats {
    std::uint64_t tasks = 0;          ///< batch tasks executed
    std::uint64_t steals = 0;         ///< tasks taken from another deque
    std::uint64_t nested_chunks = 0;  ///< ParallelFor chunks executed
  };

  /// Starts `num_threads` workers (at least 1).
  explicit WorkStealingPool(std::size_t num_threads);

  /// Joins the workers. No batch or ParallelFor may be in flight.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Runs task(i) once for every index in `order` and blocks until all
  /// complete. `order` is the priority order: order[0] is dispatched as the
  /// hardest task (see the scheduling policy above). The calling thread
  /// does not execute batch tasks; it waits (workers do the running, as
  /// with ThreadPool-based fan-out) — call it from a non-worker thread. If
  /// a task throws, the first exception is rethrown here after the batch
  /// drains; the remaining tasks still run.
  void RunBatch(const std::vector<std::size_t>& order,
                const std::function<void(std::size_t)>& task);

  /// Nested data parallelism: splits [begin, end) into fixed chunks of
  /// `grain` indices (last chunk may be short) and runs
  /// body(chunk_begin, chunk_end, chunk_index) for each. The caller
  /// executes chunks itself and idle workers help; returns when every
  /// chunk is done. Chunk boundaries depend only on (begin, end, grain) —
  /// never on the worker count — so per-chunk partial results merge
  /// deterministically. With one worker, or fewer than two chunks, the
  /// whole range runs inline as chunk 0. `body` must not throw.
  ///
  /// Callable from inside a RunBatch task: the calling worker helps only
  /// with its OWN group while waiting (never adopts another task's chunks),
  /// which bounds the stack and rules out cross-group deadlock.
  void ParallelFor(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  /// Cumulative scheduler counters since construction. Monotone, so two
  /// snapshots bracket a batch: flush the difference into a
  /// MetricsRegistry (disc_sched_*_total).
  SchedStats stats() const;

  /// Batch tasks queued but not yet started, right now.
  std::size_t queue_depth() const;

  /// Worker count for CPU-bound work: hardware concurrency, at least 1.
  static std::size_t DefaultThreadCount();

  /// The calling thread's worker index within its owning pool, or -1 when
  /// the caller is not a pool worker. Thread-local, set once per worker at
  /// startup; per-batch span buffers (PerWorkerBuffer) key their slot on it
  /// so workers record trace spans without synchronization.
  static int CurrentWorkerIndex();

 private:
  struct Batch;
  struct NestedGroup;
  struct QueuedTask {
    Batch* batch;
    std::size_t index;
  };

  void WorkerLoop(std::size_t self);
  /// Runs `item` outside the lock and completes its batch bookkeeping.
  void RunTask(std::unique_lock<std::mutex>& lock, QueuedTask item,
               bool stolen);
  /// Claims and runs one chunk of `group` (or of any live group when
  /// null). Returns false when there is nothing to claim.
  bool RunNestedChunk(std::unique_lock<std::mutex>& lock, NestedGroup* group);

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;  ///< task or chunk queued / stopping
  std::condition_variable progress_;    ///< a batch task or chunk completed
  std::vector<std::deque<QueuedTask>> deques_;  ///< one per worker
  std::vector<NestedGroup*> nested_;            ///< in-flight chunk groups
  std::vector<std::thread> workers_;
  SchedStats stats_;
  bool stopping_ = false;
};

}  // namespace disc

#endif  // DISC_COMMON_THREAD_POOL_H_
