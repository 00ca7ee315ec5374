// Annotated locking primitives: common::Mutex / MutexLock / UniqueMutexLock /
// CondVar — thin wrappers over std::mutex and std::condition_variable that
// carry the Clang thread-safety capability attributes (thread_annotations.h)
// and, in debug builds, feed a process-wide runtime lock-order validator.
//
// Why not raw std::mutex: the standard types carry no capability attributes,
// so -Wthread-safety cannot see them, and the repo's locking contract
// (sched/scheduler.h, DESIGN.md §5/§11) stays comments-only.  Every mutex in
// src/{sched,runtime,sim,obs} is a common::Mutex; the determinism lint
// (tools/lint/check_determinism.py) rejects new raw std::mutex there.
//
// Two enforcement layers, split by what each can see:
//
//   * Static (clang -Werror=thread-safety): unconditional locking — scoped
//     MutexLock sections, GUARDED_BY fields, REQUIRES(mu) methods such as
//     CondVar::Wait.  Zero runtime cost, catches misuse at compile time.
//   * Dynamic (the lock-order validator below): the contract's dynamic half,
//     which capability analysis cannot express — the movable DispatchGuard,
//     LockLifecycle's variable ascending lock set, the sharded steal path's
//     descending try_lock+skip.  Every blocking acquisition records a
//     directed edge (held-node -> acquired-node) into a process-wide graph
//     keyed by lock *rank class* (per-shard mutex families collapse to one
//     (class, rank) node per shard, so ascending-CPU-id order is checked
//     across instances); the first cycle-forming edge — or a blocking
//     re-acquisition of a held mutex (self-deadlock) — aborts with a
//     "LOCK ORDER:" report.  try_lock acquisitions mark the mutex held but
//     add no edge: a non-blocking acquisition cannot participate in a cycle
//     of waits, which is exactly why the descending steal path is legal.
//
// Cost model: common::Mutex is layout-identical to std::mutex in every build
// (validator bookkeeping lives in side tables keyed by address;
// static_assert'd in tests/common/mutex_test.cc).  With SFS_DEBUG_LOCKS
// compiled in (the default) each lock/unlock pays one relaxed atomic load
// and a predicted-untaken branch when validation is off at runtime — off by
// default in NDEBUG builds, on in debug builds, overridable either way with
// lock_order::SetEnabled() or the SFS_DEBUG_LOCKS=1 environment variable.
// Compiling with -DSFS_DEBUG_LOCKS=0 removes even the branch.

#ifndef SFS_COMMON_MUTEX_H_
#define SFS_COMMON_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/thread_annotations.h"

// 0: validator calls compiled out entirely.  1 (default): compiled in,
// runtime-gated by lock_order::Enabled() (on by default iff !NDEBUG).
#ifndef SFS_DEBUG_LOCKS
#define SFS_DEBUG_LOCKS 1
#endif

namespace sfs::common {

class Mutex;

// Runtime lock-order validator (see the header comment).  All functions are
// safe to call from any thread; Held bookkeeping is thread-local, the edge
// graph is process-wide behind its own internal mutex.
namespace lock_order {

extern std::atomic<bool> g_enabled;

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

// Turns validation on/off at runtime (tests flip it on in Release builds).
void SetEnabled(bool enabled);

// Clears the process-wide edge graph (test isolation; held-lock state and
// rank registrations are untouched).
void ResetGraphForTest();

// Assigns `mu` to a rank family: all mutexes sharing `lock_class` collapse to
// one graph node per `rank`, so the ascending-rank discipline is validated
// across every instance of the family (sched uses one class for dispatch
// mutexes, rank == CPU id).  Unregistered mutexes get a per-address node.
void SetRank(const void* mu, std::uint32_t lock_class, std::uint32_t rank);

// True iff the calling thread currently holds `mu` (test helper).
bool HeldByThisThread(const void* mu);

// Mutex internals; not for direct use.
void OnAcquire(const void* mu, bool blocking);
void OnRelease(const void* mu);
void OnDestroy(const void* mu);

}  // namespace lock_order

// Rank class used by the scheduler's dispatch-mutex family (scheduler.h);
// further classes count up from here.
inline constexpr std::uint32_t kLockClassDispatch = 1;

// Annotated std::mutex.  Satisfies Lockable, so std::unique_lock<Mutex> and
// std::lock_guard<Mutex> also work where an unannotated guard is acceptable.
class SFS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() {
#if SFS_DEBUG_LOCKS
    if (lock_order::Enabled()) [[unlikely]] {
      lock_order::OnDestroy(this);
    }
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SFS_ACQUIRE() {
#if SFS_DEBUG_LOCKS
    // Recorded before blocking: a cycle-forming wait aborts with the report
    // instead of deadlocking.
    if (lock_order::Enabled()) [[unlikely]] {
      lock_order::OnAcquire(this, /*blocking=*/true);
    }
#endif
    mu_.lock();
  }

  bool try_lock() SFS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
#if SFS_DEBUG_LOCKS
    if (lock_order::Enabled()) [[unlikely]] {
      lock_order::OnAcquire(this, /*blocking=*/false);
    }
#endif
    return true;
  }

  void unlock() SFS_RELEASE() {
#if SFS_DEBUG_LOCKS
    if (lock_order::Enabled()) [[unlikely]] {
      lock_order::OnRelease(this);
    }
#endif
    mu_.unlock();
  }

  // Static-analysis assertion that the capability is held on paths the
  // analysis cannot follow (e.g. inside a helper reached only via a movable
  // guard).  Deliberately no runtime check: single-threaded drivers exercise
  // the same code paths without taking any lock (scheduler.h contract).
  void AssertHeld() const SFS_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped lock (std::lock_guard shape) visible to the static analysis: the
// preferred guard wherever the critical section is a lexical scope.
class SFS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SFS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SFS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Movable, optionally-empty, optionally-try guard (std::unique_lock shape)
// for the contract's dynamic acquisition patterns: guards returned from
// LockDispatch/LockVictimShard, the LockLifecycle vector, conditional
// locking (LockDispatchIf).  Capability analysis cannot track a lock through
// moves, so the internals are NO_THREAD_SAFETY_ANALYSIS and the runtime
// validator carries the enforcement on these paths.
class UniqueMutexLock {
 public:
  UniqueMutexLock() = default;

  explicit UniqueMutexLock(Mutex& mu) SFS_NO_THREAD_SAFETY_ANALYSIS : mu_(&mu),
                                                                      owns_(true) {
    mu.lock();
  }

  UniqueMutexLock(Mutex& mu, std::try_to_lock_t) SFS_NO_THREAD_SAFETY_ANALYSIS
      : mu_(&mu), owns_(mu.try_lock()) {}

  UniqueMutexLock(UniqueMutexLock&& other) noexcept
      : mu_(other.mu_), owns_(other.owns_) {
    other.mu_ = nullptr;
    other.owns_ = false;
  }

  UniqueMutexLock& operator=(UniqueMutexLock&& other) noexcept
      SFS_NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) {
      if (owns_) {
        mu_->unlock();
      }
      mu_ = other.mu_;
      owns_ = other.owns_;
      other.mu_ = nullptr;
      other.owns_ = false;
    }
    return *this;
  }

  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;

  ~UniqueMutexLock() SFS_NO_THREAD_SAFETY_ANALYSIS {
    if (owns_) {
      mu_->unlock();
    }
  }

  void unlock() SFS_NO_THREAD_SAFETY_ANALYSIS {
    if (owns_) {
      mu_->unlock();
      owns_ = false;
    }
  }

  bool owns_lock() const { return owns_; }
  Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_ = nullptr;
  bool owns_ = false;
};

// Condition variable bound to common::Mutex.  Wait sites must hold the mutex
// (REQUIRES — statically checked); predicate re-checks belong in an explicit
// `while (!cond) cv.Wait(mu);` loop at the call site, where the analysis can
// see the guarded reads under the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SFS_REQUIRES(mu) {
    BeginWait(mu);
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
    EndWait(mu);
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>& deadline)
      SFS_REQUIRES(mu) {
    BeginWait(mu);
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    EndWait(mu);
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // The mutex is released for the duration of the wait; mirror that in the
  // validator's held set so edges recorded by other acquisitions while this
  // thread sleeps are not attributed to it.
  static void BeginWait(Mutex& mu) {
#if SFS_DEBUG_LOCKS
    if (lock_order::Enabled()) [[unlikely]] {
      lock_order::OnRelease(&mu);
    }
#else
    (void)mu;
#endif
  }
  static void EndWait(Mutex& mu) {
#if SFS_DEBUG_LOCKS
    if (lock_order::Enabled()) [[unlikely]] {
      lock_order::OnAcquire(&mu, /*blocking=*/true);
    }
#else
    (void)mu;
#endif
  }

  std::condition_variable cv_;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_MUTEX_H_
