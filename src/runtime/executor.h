// sfs::runtime — the user-level scheduling runtime.
//
// Runs tasks under the control of any sched::Scheduler, mirroring the kernel
// arrangement at user level:
//
//   * one dispatcher thread *per CPU* plays the role of that processor's
//     schedule(): it picks, runs the picked task's work units itself (the
//     user-level context switch is a function call, as the kernel switches
//     straight into the thread it picks), charges the scheduler with the
//     *measured* run time, and picks again — concurrently with every other
//     CPU's dispatcher, exactly as kernel CPUs run schedule() in parallel
//     (Section 3.1: quanta on different processors are not synchronized).
//     A task is a work function, not an OS thread, so at most `num_cpus`
//     tasks run at once by construction;
//   * sleep timers belong to the CPUs: tasks may return WorkResult::Block(d)
//     to sleep on simulated I/O, the scheduler sees Block/Wakeup, and the
//     runtime stays work-conserving.  A Block pushes its timer onto the
//     blocking CPU's own timer heap — that CPU is the thread's home while it
//     sleeps (Scheduler::HomeCpu) — and the dispatchers expire the timers at
//     their own decision points, as a kernel CPU's timer tick does.  The
//     runtime's only threads are its dispatchers;
//   * preemption is cooperative: a task's work function performs a small
//     unit of work per call, and between units the dispatcher checks the
//     task's preempt flag and the slice deadline, like a kernel preemption
//     point.  A unit that overruns its quantum is charged in full when it
//     returns; the other CPUs keep dispatching meanwhile.
//
// Wake and dispatch mechanics:
//
//   * PARKING — each dispatcher owns a common::ParkingSlot (futex on Linux,
//     condvar fallback).  An idle CPU parks on its own slot until the
//     earliest of its own next timer, the idle-recheck backstop and the wall
//     limit; a kick wakes exactly one targeted CPU instead of broadcasting
//     through a process-wide condition variable.  The
//     Prepare-token-before-final-look protocol (parking.h) makes a kick that
//     races between an empty pick and the park impossible to lose.
//   * OWN TIMERS — a CPU's timer heap is guarded by its LockDispatch, which
//     the Block that pushes a timer already holds.  The dispatcher expires
//     its due timers (Wakeup + SuggestPreemption per timer) under the same
//     hold as its PickNext, and between work units whenever its earliest
//     timer is due.  A wakeup that should preempt the running slice sets the
//     slice's own preempt flag, so the flag check that follows yields at that
//     very unit boundary.  Preempt pokes are applied after the hold is
//     released (the runtime never holds a dispatch mutex and a Cpu::mu
//     together — see the lock-order note below).
//   * PEER TIMERS — untraced, a dispatcher at the same points also expires a
//     peer CPU's due timers when that peer's dispatch lock is free
//     (TryLockDispatch, so a dispatcher never waits on a foreign shard), then
//     kicks the peer.  A dispatcher holds no scheduler lock while a work unit
//     runs, so a blocker homed on a CPU that is in the middle of a long unit
//     is still woken by another CPU.  With tracing on only the home
//     dispatcher applies its wakeups (per-CPU trace rings are single-writer),
//     so a wakeup homed on a busy CPU waits for that CPU's unit to return.
//
// Work conservation with single kicks: a wakeup applied for a peer kicks that
// peer; after a successful pick, the dispatcher passes the baton —
// if runnable work remains beyond what is running, it kicks one more parked
// CPU (round-robin) so queued work fans out one CPU at a time instead of
// waking the whole herd.  A parked dispatcher also re-checks on a bounded
// timeout (Config::idle_recheck, default = quantum) as a belt-and-braces
// backstop, so a missed heuristic kick costs at most one recheck period, not
// liveness.
//
// Lock order (validated in debug builds): dispatch mutexes < everything
// else.  Cpu::mu is a leaf lock; the runtime never acquires a
// scheduler lock while holding them, and never acquires them while holding a
// scheduler lock.  Preempt pokes discovered under LockDispatch are therefore
// parked in a per-dispatcher scratch vector and applied after the guard is
// released.
//
// Scheduler calls follow the sched::Scheduler thread-safety contract
// (scheduler.h).  The runtime uses the contract's sanctioned lifecycle
// relaxation: Block for a thread that just ran on this CPU and Wakeup for a
// thread whose home shard this dispatcher holds are bracketed by
// LockDispatch(home) alone; thread exit keeps the exclusive LockLifecycle.
// Trace discipline follows from that: block/wakeup records go to the acting
// dispatcher's own per-CPU ring (single writer), not the lifecycle ring.
//
// This is how the repository demonstrates real proportional sharing on the
// host (examples/realtime_exec, examples/blocking_workload,
// examples/runtime_quickstart) and how Table 1's context-switch latencies get
// a real-code analogue (bench/table1): the dispatch latency measured here
// includes the actual scheduler data-structure work plus any lock contention
// between concurrent dispatchers.

#ifndef SFS_RUNTIME_EXECUTOR_H_
#define SFS_RUNTIME_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/parking.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/scheduler.h"

namespace sfs::runtime {

class Executor {
 public:
  struct Config {
    // Quantum handed to each dispatch.  Shorter than the kernel's 200 ms
    // default so that demo runs interleave visibly.
    Tick quantum = Msec(20);

    // Test seam: how long a parked dispatcher sleeps before re-checking for
    // work on its own (the backstop for the single-kick heuristics above;
    // its own sleep timers end a park earlier).  0 = use `quantum`.  Set only
    // by RuntimeTest.TargetedKickRedispatchesParkedCpus, which lengthens it
    // so that only a timer or a kick can wake a parked CPU promptly.
    Tick idle_recheck = 0;

    // Test seam: force the parking backend; kAuto picks futex on Linux.  Set
    // only by RuntimeTest.CondVarParkingBackendWorks, which covers the
    // condvar fallback on any host.
    common::ParkingSlot::Backend park_backend = common::ParkingSlot::Backend::kAuto;

    // Observability sink (wall-nanosecond clock domain; Clock must be
    // kWallNanos and the trace must have at least the scheduler's num_cpus
    // rings).  Each dispatcher records pick/lock-wait spans, grants, run
    // slices, preemptions and the block/wakeup transitions it applies into
    // its own CPU ring.  nullptr (the default) costs one predicted branch per
    // site and the executor's behaviour is unchanged.
    obs::Trace* trace = nullptr;

    // Metrics registry the latency histograms live in.  When null the
    // executor creates a private registry; pass a shared one so experiments
    // serialize the histograms through the Reporter.  Must be sharded at
    // least num_cpus ways.
    obs::MetricsRegistry* metrics = nullptr;
  };

  // Outcome of one work unit: keep running, finish, or sleep on simulated I/O
  // for `block_for` ticks, counted from the instant the unit returned (a
  // dispatcher expires the sleep timer and wakes the task afterwards).
  struct WorkResult {
    enum class Kind { kContinue, kDone, kBlock };

    static WorkResult Continue() { return {Kind::kContinue, 0}; }
    static WorkResult Done() { return {Kind::kDone, 0}; }
    static WorkResult Block(Tick block_for) { return {Kind::kBlock, block_for}; }

    Kind kind = Kind::kContinue;
    Tick block_for = 0;
  };

  // The scheduler decides who runs; its num_cpus() bounds concurrency.
  Executor(sched::Scheduler& scheduler, const Config& config);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Registers a task before Run().  `work` is invoked repeatedly, on the
  // dispatcher thread of whichever CPU runs the task; each call should do a
  // small unit (tens of microseconds) of work and report through its
  // WorkResult whether to continue, finish, or block.  Successive calls never
  // overlap and are ordered by the scheduler's locks, so per-task state needs
  // no synchronization of its own.  Task ids should be small and dense:
  // dispatch routing uses a tid-indexed flat vector (the scheduler's by_tid_
  // idiom).
  void AddTask(sched::ThreadId tid, sched::Weight weight,
               std::function<WorkResult()> work);

  // Convenience overload: `work` returns true to continue, false when done
  // (never blocks).
  void AddTask(sched::ThreadId tid, sched::Weight weight, std::function<bool()> work);

  // Runs until every task finishes or `wall_limit` elapses.  Returns the wall
  // time actually spent (ticks).
  Tick Run(Tick wall_limit);

  // Measured CPU time granted to a task (ticks of wall time while scheduled).
  Tick CpuTime(sched::ThreadId tid) const;

  // Latency from preemption to the task actually yielding — from the poke for
  // a wakeup preemption, from the slice deadline for a quantum expiry — to
  // the end of the work unit in flight; a user-level proxy for
  // context-switch cost.  Computed from raw steady_clock time points
  // (flag-set and yield instants are subtracted *before* any truncation to
  // ticks, so the samples carry no quantization bias).
  const common::SampleSet& preempt_latencies() const { return preempt_latencies_; }

  // Latency of one scheduling decision in NANOSECONDS: acquiring the dispatch
  // lock (including any contention with other CPUs' dispatchers) plus
  // expiring this CPU's due sleep timers plus PickNext.  Idle picks (nothing
  // runnable) are not sampled.  Accumulated in a bounded per-CPU
  // obs::LogHistogram rather than an unbounded sample vector, so arbitrarily
  // long runs cost constant memory; the snapshot keeps the
  // count/mean/min/max/Percentile shape of the SampleSet it replaced.
  obs::HistogramSnapshot dispatch_latencies() const { return dispatch_hist_->Snapshot(); }

  // Time spent waiting to acquire the dispatch lock alone (nanoseconds); the
  // contention component of dispatch_latencies(), sampled on every acquisition
  // including idle picks.
  obs::HistogramSnapshot lock_wait_latencies() const { return lock_wait_hist_->Snapshot(); }

  // Wall length of each completed run slice (nanoseconds, grant to yield).
  obs::HistogramSnapshot run_interval_lengths() const { return run_hist_->Snapshot(); }

  // Timer-due instant -> Scheduler::Wakeup applied (nanoseconds): how long a
  // due sleep timer waits for a dispatcher to reach a decision point (a unit
  // boundary, a pick, or the end of a park) and expire it.
  obs::HistogramSnapshot wake_apply_latencies() const {
    return wake_apply_hist_->Snapshot();
  }

  // Timer-due instant -> the woken thread actually granted a CPU
  // (nanoseconds): the runtime's end-to-end wake-to-dispatch latency.  One
  // sample per wakeup, recorded at the grant that first runs the thread
  // again.
  obs::HistogramSnapshot wake_to_dispatch_latencies() const {
    return wake_dispatch_hist_->Snapshot();
  }

  // The registry the executor's histograms live in (the Config::metrics one,
  // or the private fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  std::int64_t dispatches() const { return dispatches_.load(std::memory_order_relaxed); }
  std::int64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }
  std::int64_t preemptions() const { return preemptions_.load(std::memory_order_relaxed); }
  // Parking-slot kicks issued (shutdown counts every slot; otherwise one
  // CPU per kick) — the wake-traffic number.
  std::int64_t kicks() const { return kicks_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::int64_t kNoTimer = INT64_MAX;

  struct Report {
    sched::ThreadId tid = sched::kInvalidThread;
    Tick ran = 0;
    WorkResult::Kind kind = WorkResult::Kind::kContinue;
    Tick block_for = 0;
    bool preempt_observed = false;   // yielded on the flag or the deadline
    Clock::time_point yielded_at{};  // raw instant the slice ended
  };

  struct Worker {
    sched::ThreadId tid = sched::kInvalidThread;
    sched::Weight weight = 1.0;
    std::function<WorkResult()> work;

    // Set (under the running CPU's Cpu::mu) to end the current slice at the
    // next unit boundary.
    std::atomic<bool> preempt{false};

    // Wall-ns instant (trace epoch) the pending wakeup came due; -1 when no
    // wakeup is in flight.  Stored where Wakeup is applied, exchanged out at
    // the grant that runs the thread again — the wake_to_dispatch sample.
    std::atomic<std::int64_t> wake_pending_ns{-1};

    Tick cpu_time = 0;  // written under the dispatch/lifecycle lock of the charging CPU
  };

  // A sleep timer: the thread blocked on the CPU whose heap holds it (its
  // home while blocked — a blocked thread cannot migrate) and wakes at `at`.
  struct PendingWakeup {
    Clock::time_point at;
    sched::ThreadId tid;
    bool operator>(const PendingWakeup& other) const { return at > other.at; }
  };

  // A preemption suggested by a timer expiry, applied after the dispatch
  // guard is released (never hold a dispatch mutex and a Cpu::mu together).
  struct PreemptPoke {
    sched::CpuId cpu = sched::kInvalidCpu;
    sched::ThreadId tid = sched::kInvalidThread;
  };

  // Per-processor dispatcher state.  mu guards the running slice's identity
  // against preempt pokes; park carries kicks in; timers holds the sleeps of
  // threads that blocked here.
  struct Cpu {
    common::Mutex mu;
    sched::ThreadId running_tid SFS_GUARDED_BY(mu) = sched::kInvalidThread;
    bool preempt_sent SFS_GUARDED_BY(mu) = false;
    Clock::time_point preempt_sent_at SFS_GUARDED_BY(mu){};

    // This dispatcher's private parking slot; anyone may Kick() it.
    common::ParkingSlot park;
    // True only while the owning dispatcher is inside ParkUntil; targeted
    // kicks scan these flags to pick ONE sleeping CPU instead of waking all.
    std::atomic<bool> parked{false};
    // Sleep timers of the threads that blocked on this CPU, a min-heap on
    // `at` (std::greater).  Guarded by this CPU's LockDispatch: only the
    // owning dispatcher pushes (in HandleReport's Block), and whoever holds
    // the lock expires.
    std::vector<PendingWakeup> timers;
    // Wall-ns (trace epoch) of timers.front(), kNoTimer when empty; written
    // under the same lock, read lock-free at preemption points and by peers.
    std::atomic<std::int64_t> next_due{kNoTimer};

    // Grant instant in ticks since run start, for the elapsed[] vector handed
    // to SuggestPreemption; advisory, hence lock-free.
    std::atomic<Tick> grant_at{0};
    // What this CPU is running, readable without cpu.mu (advisory mirror of
    // running_tid for the elapsed[] estimate; exact values go through mu).
    std::atomic<sched::ThreadId> running_hint{sched::kInvalidThread};

    // This dispatcher's preempt-latency samples; written only by its own
    // thread and merged after the run, so sampling never serializes
    // dispatchers.  (Dispatch latencies go straight to the sharded
    // histograms, which are per-CPU by construction.)
    common::SampleSet preempt_latencies;

    // Expiry scratch (own dispatcher only): pokes collected under a dispatch
    // guard, applied after it; elapsed[] reused across expiries.
    std::vector<PreemptPoke> pokes;
    std::vector<Tick> elapsed_scratch;

    explicit Cpu(common::ParkingSlot::Backend backend) : park(backend) {}
  };

  void DispatcherLoop(sched::CpuId cpu);
  void HandleReport(sched::CpuId cpu, const Report& report, bool preempt_sent,
                    Clock::time_point preempt_sent_at);

  // Expires home's timers due by `now`: ApplyWakeupLocked per timer, pokes
  // parked into actor.pokes (actor = the calling dispatcher's Cpu), and
  // home's next_due republished.  Caller holds LockDispatch(home).  Returns
  // true if any timer expired.
  bool ExpireTimersLocked(sched::CpuId home, Clock::time_point now, Cpu& actor);
  // Untraced only: expires every peer's due timers whose dispatch lock is
  // free, then applies the pokes and kicks that peer.  Caller holds no
  // scheduler lock.  Returns true if any timer expired.
  bool ExpirePeerTimers(sched::CpuId cpu, Clock::time_point now);
  // Applies ONE wakeup for a thread homed on `home`; caller holds
  // LockDispatch(home).  Stale wakeups (thread exited, or already runnable
  // from a duplicate delivery) return false untouched.  *poke receives any
  // suggested preemption (cpu == kInvalidCpu when none) for the caller to
  // deliver after releasing the guard.  When trace_ is set the caller must be
  // `home`'s own dispatcher (the wakeup record goes to ring `home`).
  bool ApplyWakeupLocked(sched::CpuId home, sched::ThreadId tid, Clock::time_point due,
                         std::vector<Tick>& elapsed_scratch, PreemptPoke* poke);
  // Applies (and clears) cpu.pokes; caller must NOT hold any scheduler lock.
  void ApplyPreemptPokes(Cpu& cpu);
  // Sets poke.tid's preempt flag if it is still the thread granted on
  // poke.cpu; caller must NOT hold any scheduler lock (Cpu::mu is a leaf).
  void PokePreempt(const PreemptPoke& poke);

  // Wakes one parked CPU (round-robin from `hint`+1), or none if all are
  // busy.  The parked-flag scan is advisory — a miss costs one
  // idle_recheck period, never liveness.
  void KickOneParked(sched::CpuId hint);
  // Kicks every slot (shutdown).
  void KickAllParked();
  // "Scheduler state changed, somebody idle may have work": kicks one parked
  // CPU if runnable work exceeds the CPUs running it.
  void KickAfterStateChange(sched::CpuId hint);

  void StopAll();
  // Republishes cpu.next_due from its heap; caller holds that CPU's
  // LockDispatch.
  void PublishNextDue(Cpu& cpu);

  Worker& WorkerByTid(sched::ThreadId tid) {
    return *worker_by_tid_[static_cast<std::size_t>(tid)];
  }

  // Wall nanoseconds since the run started (the trace epoch).
  std::int64_t WallNs(Clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - t0_).count();
  }

  sched::Scheduler& scheduler_;
  Config config_;
  Tick idle_recheck_ = 0;  // resolved from config (0 -> quantum)

  // Metrics plumbing: external registry or private fallback, plus resolved
  // histogram handles (registration takes a lock; recording must not).
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LogHistogram* dispatch_hist_ = nullptr;
  obs::LogHistogram* lock_wait_hist_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;
  obs::LogHistogram* wake_apply_hist_ = nullptr;
  obs::LogHistogram* wake_dispatch_hist_ = nullptr;
  obs::Trace* trace_ = nullptr;  // == config_.trace

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> worker_by_tid_;  // tid-indexed flat vector, built in Run
  std::vector<std::unique_ptr<Cpu>> cpus_;

  Clock::time_point t0_;
  Clock::time_point wall_end_;

  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  // CPUs currently running a slice; the baton-kick predicate
  // compares it with scheduler_.runnable_count() (which counts running
  // threads too) to estimate queued-but-not-running work.
  std::atomic<int> running_cpus_{0};

  // Merged from the per-CPU sample sets after the dispatchers join.
  common::SampleSet preempt_latencies_;
  std::atomic<std::int64_t> dispatches_{0};
  std::atomic<std::int64_t> wakeups_{0};
  std::atomic<std::int64_t> preemptions_{0};
  std::atomic<std::int64_t> kicks_{0};
  bool started_ = false;
};

}  // namespace sfs::runtime

#endif  // SFS_RUNTIME_EXECUTOR_H_
