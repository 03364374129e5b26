#ifndef DISC_COMMON_FAULT_H_
#define DISC_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"

namespace disc {

/// Deterministic fault injection (DESIGN.md §11).
///
/// Code under test declares named *fault sites* — stable string identifiers
/// at the seams where real systems fail (index build, cache fill, task
/// dispatch, socket reads). A test or the CLI attaches a FaultInjector armed
/// with FaultSpecs; each spec selects a site, a trigger (nth hit, periodic,
/// or explicit schedule) and a fault kind. With no injector attached every
/// site is a single null-pointer check, mirroring the IndexQueryMetrics
/// zero-overhead-when-disabled pattern.
///
/// Determinism: triggers depend only on the per-site hit index, never on
/// wall clock or RNG state, so a given (specs, workload) pair fires the same
/// faults on every run as long as the per-site hit order is itself
/// deterministic (true for all single-threaded sites; for concurrent sites
/// such as `pool.task`, hit indices are assigned by atomic increment and
/// nth-hit triggers still fire exactly once, on *some* task).

/// What happens when a fault fires.
enum class FaultKind {
  /// Site returns a non-OK Status carrying FaultSpec::code.
  kError,
  /// Site sleeps for FaultSpec::latency_ms, then returns OK.
  kLatency,
  /// Trips the injector's CancellationSource (see FaultInjector::token());
  /// the site itself returns OK and cancellation propagates cooperatively.
  kCancel,
  /// Site returns kResourceExhausted, simulating an allocation failure
  /// surfaced as a Status (the library never throws bad_alloc across API
  /// boundaries).
  kAllocFail,
  /// Site throws FaultInjectedError, simulating an abrupt crash that
  /// unwinds without running any of the caller's completion logic.
  kKill,
};

/// Short lower-case name for a fault kind ("error", "latency", ...).
const char* FaultKindName(FaultKind kind);

/// Thrown by FaultKind::kKill to simulate a process crash at a fault site.
/// Nothing in the library catches it, so it unwinds to the test harness
/// (or, under WorkStealingPool::RunBatch, is rethrown after the batch
/// drains) exactly like an unexpected hard failure would.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One armed fault: a site, a trigger, and a kind.
///
/// Trigger evaluation for per-site hit index `h` (0-based):
///   - `schedule` non-empty: fires when `h` is in the list;
///   - otherwise: fires at `h == nth`, and every `every` hits after that
///     when `every` > 0.
/// `max_fires` caps the total fires of this spec across all triggers.
struct FaultSpec {
  std::string site;
  FaultKind kind = FaultKind::kError;

  std::uint64_t nth = 0;
  std::uint64_t every = 0;
  std::vector<std::uint64_t> schedule;
  std::uint64_t max_fires = std::numeric_limits<std::uint64_t>::max();

  /// Status code returned by kError fires.
  StatusCode code = StatusCode::kInternal;
  /// Sleep applied by kLatency fires.
  std::uint32_t latency_ms = 0;
};

/// Parses a `--fault-spec` string into FaultSpecs.
///
/// Grammar: specs separated by ';', each `site:kind[:key=value[,...]]`.
/// Kinds: error, latency, cancel, alloc, kill. Keys: nth, every, max
/// (max_fires), ms (latency_ms), code (error code name, e.g.
/// resource_exhausted), at (explicit schedule, '+'-separated hit indices,
/// e.g. at=3+9+12).
///
/// Example: "search.node:cancel:nth=100;dcache.fill:latency:ms=5,every=10"
Result<std::vector<FaultSpec>> ParseFaultSpecs(std::string_view text);

/// Registry of fault sites. Configure with Add()/AddFromString()
/// *before* sharing with other threads (attaching via
/// AttachGlobalFaultInjector is a sufficient synchronization point); Hit()
/// is then safe to call concurrently from any thread.
class FaultInjector {
 public:
  /// Per-site state. Obtain via FaultInjector::site() once (e.g. at gauge
  /// or server construction) and call Hit() on the hot path; a site with no
  /// armed specs only bumps a relaxed counter.
  class Site {
   public:
    /// Records one hit and applies the first firing spec, if any. Returns
    /// OK when nothing fires (or the fault kind is latency/cancel); throws
    /// FaultInjectedError for kKill.
    Status Hit();

    /// Total hits recorded at this site.
    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    /// Total fires (any kind) at this site.
    std::uint64_t fires() const {
      return fires_.load(std::memory_order_relaxed);
    }

   private:
    friend class FaultInjector;
    struct Rule {
      FaultSpec spec;
      std::atomic<std::uint64_t> fires{0};
    };

    Site(FaultInjector* owner, std::string name);

    FaultInjector* owner_;
    std::string name_;
    std::vector<std::unique_ptr<Rule>> rules_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> fires_{0};
  };

  /// Arms one fault. Must not race with Hit() (configure-then-attach).
  void Add(FaultSpec spec);
  /// Parses `text` with ParseFaultSpecs and arms every spec.
  Status AddFromString(std::string_view text);

  /// The per-site state for `name`, created on first use. Never null.
  /// The pointer is stable for the injector's lifetime.
  Site* site(std::string_view name);

  /// Records a hit at `name` (slow path: name lookup per call). Prefer
  /// resolving site() once for hot loops.
  Status Hit(const char* name) { return site(name)->Hit(); }

  /// Token tripped by kCancel fires. Wire into a SearchBudget or
  /// BatchBudget to let injected faults cancel work cooperatively.
  CancellationToken token() const { return cancel_.token(); }
  /// True iff a kCancel fault has fired.
  bool cancel_fired() const { return cancel_.cancel_requested(); }

  /// Also trip `source` when a kCancel fault fires — lets a caller that
  /// already owns a cancellation source (e.g. disc_cli's Ctrl-C source)
  /// observe injected cancellations without re-plumbing its tokens.
  /// Configure before attaching, like Add().
  void MirrorCancelTo(const CancellationSource& source) {
    cancel_mirrors_.push_back(source);
  }

  /// Total fires across all sites.
  std::uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }
  /// Fires at one site (0 when the site was never hit).
  std::uint64_t fires(std::string_view name);
  /// Hits at one site (0 when the site was never hit).
  std::uint64_t hit_count(std::string_view name);

 private:
  friend class Site;

  CancellationSource cancel_;
  std::vector<CancellationSource> cancel_mirrors_;
  std::atomic<std::uint64_t> total_fires_{0};
  std::mutex mu_;  // guards sites_ map shape; Site state is lock-free
  std::vector<std::unique_ptr<Site>> sites_;
};

/// The process-wide injector, or nullptr when fault injection is disabled
/// (the default). Reading it is a single acquire load.
FaultInjector* GlobalFaultInjector();

/// Attaches (or detaches, with nullptr) the process-wide injector. The
/// caller keeps ownership and must detach before destroying it. Configure
/// all specs before attaching.
void AttachGlobalFaultInjector(FaultInjector* injector);

/// Resolves a site handle against the global injector: nullptr when fault
/// injection is disabled. Call once per object/scope, not per hit.
FaultInjector::Site* FaultSiteFor(const char* name);

/// Fault point for cold paths: records a hit against the global injector
/// and yields the resulting Status (OK when disabled). Usage:
///   if (Status s = DISC_FAULT_POINT("pipeline.index_build"); !s.ok()) ...
#define DISC_FAULT_POINT(site_name)                 \
  (::disc::GlobalFaultInjector() == nullptr         \
       ? ::disc::Status::OK()                       \
       : ::disc::GlobalFaultInjector()->Hit(site_name))

}  // namespace disc

#endif  // DISC_COMMON_FAULT_H_
