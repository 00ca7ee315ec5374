// Discrete-event SMP simulator.
//
// Substitute for the paper's dual-processor Pentium III testbed (DESIGN.md,
// "Substitutions").  The engine models p processors driving any sched::Scheduler
// through the exact kernel protocol of Section 3.1:
//
//   * each processor independently dispatches, runs its thread until the quantum
//     expires or the thread blocks/exits, then charges the scheduler with the
//     *actual* time used (quanta on different CPUs are not synchronized);
//   * arrivals and wakeups dispatch to an idle processor immediately, or consult
//     Scheduler::SuggestPreemption (the reschedule_idle() analogue; Linux 2.2
//     calls it from wake_up_process() for forked children as well as wakeups);
//   * an optional per-switch context-switch cost consumes processor time that is
//     credited to no thread;
//   * every state change is reported to optional observers so experiments can
//     mirror the event stream into the GMS fluid reference or sample service
//     time-series (Figures 4 and 5 plot exactly those series).
//
// Hot-path layout (DESIGN.md, "Engine internals"): the event queue is a
// hierarchical timing wheel with pooled nodes, tasks live in a dense slot
// arena indexed by the events themselves, and observer hooks are null-checked
// once per notification — steady-state simulation performs no allocations in
// the event loop.  The loop is one NextTime()/PopFront() round trip per event;
// the wheel pops in (time, insertion) order, FIFO among equal times.
//
// Workers (DESIGN.md §10).  The event loop is sharded along the same per-CPU
// boundaries as sched::ShardedScheduler: each simulation *worker* owns a
// contiguous block of simulated CPUs and runs a private event loop over them —
// its own timing wheel, its own clock, its own counters.
//
//   * workers == 1 (the default) runs inline on the calling thread: no
//     threads, no barriers, no mail, no kicks, and every scheduler lock guard
//     is empty.  It is deterministic: simultaneous events fire in insertion
//     order.
//   * workers > 1 cuts simulated time into epochs of `epoch` ticks.  Within an
//     epoch a worker processes its own events freely; cross-worker interaction
//     goes through the scheduler's own locks (per-shard dispatch mutexes for
//     steal / rebalance, the full lifecycle lock for arrivals and exits).  At
//     each boundary every worker parks on a barrier and the last arriver runs
//     Scheduler::OnEpochBoundary(now) single-threaded.  A wakeup whose home
//     shard belongs to another worker is mailed through a per-(target, source)
//     MPSC mailbox and drained at the target's next epoch start, clamped
//     forward to it; at each epoch start a worker re-dispatches its idle CPUs
//     ("idle kick").
//   * workers > 1 with a *partitioned* sharded policy (stealing off, rebalance
//     off, coupling 0, every task carrying a home hint) evolves each worker's
//     shard group exactly as workers == 1 does: per-group event streams are
//     byte-identical at any worker count, on reruns.
//   * workers > 1 with stealing/rebalancing policies is *boundedly
//     divergent*: every schedule is one the single worker could have produced
//     under a different legal event interleaving, with cross-worker placement
//     delayed by at most one epoch.  Conservation invariants (arrivals ==
//     departures + live, every grant charged) hold in every mode.
//
// Restrictions at workers > 1 (checked where practical): AddTaskAt, KillTask
// and ReserveTasks only while quiescent (outside RunUntil); no periodic hooks;
// observer and exit hooks run concurrently on the workers.

#ifndef SFS_SIM_ENGINE_H_
#define SFS_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/mpsc_mailbox.h"
#include "src/common/mutex.h"
#include "src/common/slot_arena.h"
#include "src/common/time.h"
#include "src/common/timing_wheel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/scheduler.h"
#include "src/sim/task.h"

namespace sfs::sched {
class ShardedScheduler;
}  // namespace sfs::sched

namespace sfs::sim {

struct EngineConfig {
  // CPU time consumed by switching a processor to a *different* thread; modelled
  // as uncredited processor time before the new thread starts (Table 1 measures
  // the real-code analogue).
  Tick context_switch_cost = 0;

  // Cache-restore model (Table 1's "restoration of the cache state becomes the
  // dominating factor"): dispatching a task with a working set costs extra
  // uncredited time per KiB — full when cache-cold (last ran elsewhere), half
  // when returning to its own CPU after other tasks polluted it, zero when it
  // is re-dispatched back-to-back.  0 disables the model.
  Tick cache_restore_per_kb = 0;

  // Observability sink (sim-tick clock domain).  When set, the engine records
  // grants, preemptions, run intervals, charges and lifecycle events into the
  // trace's rings and also hands the trace to the scheduler (steal/rebalance/
  // readjust records).  Recording never feeds back into scheduling decisions,
  // so schedules and fingerprints are byte-identical with tracing on or off;
  // the nullptr path costs one predicted branch per instrumentation point
  // (the NotifySchedEvent contract).  At workers > 1 the trace gains
  // per-worker lifecycle rings; per-CPU rings stay single-writer because ring
  // c is only ever written by the worker owning CPU c.
  obs::Trace* trace = nullptr;

  // Sim-time histogram sink.  When set, the engine records every granted
  // quantum into "sim/quantum_ticks" and every completed run interval into
  // "sim/run_interval_ticks" (both in ticks).  These are pure functions of
  // the workload and seed — unlike the executor's wall-clock histograms they
  // belong in the Reporter's deterministic section.  Same cost contract as
  // `trace`: one predicted branch per site when null.  At workers > 1 the
  // registry must have at least `workers` shards (checked).
  obs::MetricsRegistry* metrics = nullptr;

  // Simulation workers, each owning num_cpus/workers simulated CPUs (must
  // satisfy 1 <= workers <= num_cpus).
  int workers = 1;

  // Epoch length in ticks (workers > 1 only): the conservative
  // synchronization horizon.  Longer epochs amortize barriers; shorter
  // epochs tighten cross-worker placement latency and virtual-time skew.
  Tick epoch = Msec(10);
};

// Scheduler-visible lifecycle events, for mirroring into GmsReference etc.
enum class SchedEvent { kArrival, kDeparture, kBlock, kWakeup };

class Engine {
 public:
  Engine(sched::Scheduler& scheduler, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- workload setup ---------------------------------------------------------

  // Schedules `task` to arrive (become runnable) at absolute time `at` >= now.
  // The arrival is routed to the worker owning the task's home_cpu() hint;
  // hintless tasks round-robin across workers.
  void AddTaskAt(Tick at, std::unique_ptr<Task> task);

  // Pre-sizes the task arena, the tid index and the event-queue node pools for
  // a workload of about `task_count` tasks.  Purely an allocation hint —
  // growth past it is handled — meant to be called at workload-setup time so
  // the measured region allocates nothing.
  void ReserveTasks(std::size_t task_count);

  // Registers `fn` to run every `period` ticks of simulated time (first firing at
  // now + period).  Used for service sampling.  workers == 1 only: a periodic
  // hook would race every worker's clock.
  void AddPeriodicHook(Tick period, std::function<void(Engine&)> fn);

  // Called when a task exits; may add new tasks (e.g. the Figure 5 short-job
  // chain: "each short task was introduced only after the previous one finished").
  // At workers > 1 it runs on whichever worker retires the task, so it must be
  // thread-safe and must not touch the engine.
  void SetExitHook(std::function<void(Engine&, Task&)> fn);

  // Observes every scheduler-visible lifecycle event (for the GMS mirror).
  // The no-observer configuration pays a single branch per event.  At
  // workers > 1 it runs concurrently on the workers.
  void SetSchedEventHook(std::function<void(SchedEvent, const Task&, Tick)> fn);

  // Observes every completed run interval: (start, length, cpu, tid).  Used by
  // sim::TraceRecorder for spurt analysis.  At workers > 1 it runs
  // concurrently on the workers (each on the one owning `cpu`).
  void SetRunIntervalHook(std::function<void(Tick, Tick, sched::CpuId, sched::ThreadId)> fn);

  // --- execution ---------------------------------------------------------------

  // Runs the simulation until `until` (inclusive of events at `until`).  At
  // workers > 1 it spawns the workers, runs the epoch loop and joins them
  // before returning.
  void RunUntil(Tick until);

  // Terminates a task immediately (the kill(1) analogue used when an experiment
  // "stops" a thread, e.g. T2 at t=30s in Figure 4).  Charges and removes it
  // from the scheduler in whatever state it is, then refills its processor.
  void KillTask(sched::ThreadId tid);

  // --- introspection (quiescent, or from hooks at workers == 1) ---------------

  // Simulated time: worker 0's clock, which is the live clock at workers == 1;
  // every worker's clock reads `until` once RunUntil returns.
  Tick now() const { return workers_.front()->now; }
  int workers() const { return config_.workers; }
  sched::Scheduler& scheduler() { return scheduler_; }

  // Task lookup; valid for exited tasks until the engine is destroyed.
  const Task& task(sched::ThreadId tid) const;
  Task& task(sched::ThreadId tid);
  bool HasTask(sched::ThreadId tid) const;

  // Cumulative CPU service of a task in ticks (survives task exit).
  Tick Service(sched::ThreadId tid) const { return task(tid).service(); }

  // Like Service(), but includes the uncharged time of an in-flight quantum, so
  // samplers observe smooth progress rather than 200 ms staircases.
  Tick ServiceIncludingRunning(sched::ThreadId tid) const;

  // Iterates all tasks ever added (any state), in arrival-insertion order.
  template <typename Fn>
  void ForEachTask(Fn&& fn) const {
    tasks_.ForEach(fn);
  }

  // Counters, summed over all workers.
  std::int64_t context_switches() const { return SumCounter(&Worker::context_switches); }
  std::int64_t dispatches() const { return SumCounter(&Worker::dispatches); }
  std::int64_t preemptions() const { return SumCounter(&Worker::preemptions); }
  // Events popped off the event queues so far (arrivals, wakeups, CPU timers —
  // including superseded ones — and periodic-hook firings).  The denominator
  // of the engine-throughput benchmarks.
  std::int64_t events_processed() const { return SumCounter(&Worker::events_processed); }
  // Dispatches that moved a task to a different processor than it last ran on
  // (cache-cold starts; the affinity extension reduces these).
  std::int64_t migrations() const { return SumCounter(&Worker::migrations); }
  // Idle-pull steals the scheduler performed during this engine's lifetime
  // (sharded policies; zero for flat schedulers).  Steals happen only inside
  // PickNext, so the scheduler's own counter is exact.
  std::int64_t steals() const { return scheduler_.steals() - steals_at_ctor_; }
  // Wakeups that crossed a worker boundary through a mailbox (0 at workers == 1).
  std::int64_t mailed_wakeups() const { return SumCounter(&Worker::mailed_wakeups); }
  // Epoch barriers crossed (0 at workers == 1).
  std::int64_t epochs() const { return epochs_; }
  // Processor time consumed by context switches so far, including the consumed
  // part of any in-flight switch window (so the capacity identity
  // service + idle + switch cost == p * elapsed holds at any instant).
  Tick total_context_switch_cost() const;
  Tick idle_time() const;

 private:
  using TaskSlot = common::SlotArena<Task>::SlotId;

  enum class EventKind : std::uint8_t { kArrival, kWakeup, kCpuTimer, kPeriodic };

  // The wheel keeps each event's time (and the per-tick FIFO order) itself.
  // `a` is the task slot (arrival/wakeup), cpu (timer) or hook index
  // (periodic); `stamp` carries the timer generation for kCpuTimer and the
  // home shard (the dispatch-mutex key for the wakeup-path lock relaxation,
  // scheduler.h) for kWakeup.
  struct Event {
    EventKind kind = EventKind::kArrival;
    std::int32_t a = 0;
    std::uint64_t stamp = 0;
  };

  struct Cpu {
    sched::ThreadId running = sched::kInvalidThread;
    TaskSlot running_slot = 0;  // arena slot of `running` (valid iff running)
    sched::ThreadId last_thread = sched::kInvalidThread;
    Tick dispatch_time = 0;  // when the dispatch began (switch window start)
    Tick switch_cost = 0;    // cost of the in-flight switch window
    Tick run_start = 0;      // when the current thread began accruing service
    Tick quantum_end = 0;    // absolute preemption deadline
    Tick burst_end = 0;      // absolute completion of the thread's compute burst
    std::uint64_t timer_stamp = 0;  // invalidates superseded timer events
    Tick idle_since = 0;
    Tick idle_accum = 0;
  };

  struct PeriodicHook {
    Tick period = 0;
    std::function<void(Engine&)> fn;
  };

  // A wakeup crossing worker boundaries: deliver task `slot` at `time`,
  // locking shard `home` (clamped forward to the receiving epoch's start).
  struct Mail {
    TaskSlot slot = 0;
    Tick time = 0;
    sched::CpuId home = sched::kInvalidCpu;
  };

  // Per-worker simulation state.  Only the owning worker thread touches any
  // of it during a multi-worker run (mailboxes aside, which are MPSC by design).
  struct Worker {
    // Mailboxes are sized up front: MpscMailbox is self-referential (its stub
    // node anchors the list), so the vector may never relocate one.
    explicit Worker(int nworkers) : mail(static_cast<std::size_t>(nworkers)) {}

    int id = 0;
    sched::CpuId cpu_begin = 0;  // owned simulated CPUs: [cpu_begin, cpu_end)
    sched::CpuId cpu_end = 0;
    Tick now = 0;
    common::TimingWheel<Event> wheel;
    // mail[source]: wakeups sent to this worker by worker `source`.
    std::vector<common::MpscMailbox<Mail>> mail;
    std::vector<Tick> preempt_elapsed;  // reused SuggestPreemption scratch

    std::int64_t context_switches = 0;
    std::int64_t dispatches = 0;
    std::int64_t preemptions = 0;
    std::int64_t migrations = 0;
    std::int64_t events_processed = 0;
    std::int64_t mailed_wakeups = 0;
    Tick total_ctx_cost = 0;
  };

  // Mutex/condvar epoch barrier; the completion function runs exclusively
  // (every other worker parked) — the single-threaded window OnEpochBoundary
  // is specified against.
  class EpochBarrier {
   public:
    explicit EpochBarrier(int count) : count_(count) {}
    template <typename Fn>
    void ArriveAndWait(Fn&& completion) {
      common::MutexLock lock(mu_);
      const std::uint64_t generation = generation_;
      if (++waiting_ == count_) {
        completion();
        waiting_ = 0;
        ++generation_;
        cv_.NotifyAll();
        return;
      }
      while (generation_ == generation) {
        cv_.Wait(mu_);
      }
    }

   private:
    common::Mutex mu_;
    common::CondVar cv_;
    int count_;
    int waiting_ SFS_GUARDED_BY(mu_) = 0;
    std::uint64_t generation_ SFS_GUARDED_BY(mu_) = 0;
  };

  int OwnerOf(sched::CpuId cpu) const {
    return owner_of_cpu_[static_cast<std::size_t>(cpu)];
  }

  // tid -> arena slot; CHECK-fails on unknown tid.
  TaskSlot SlotFor(sched::ThreadId tid) const;

  // Empty (no-op) guards at workers == 1: the single worker must not pay for
  // — or be reordered by — locks nobody contends.
  sched::Scheduler::DispatchGuard LockDispatchIf(sched::CpuId cpu) {
    return locked_ ? scheduler_.LockDispatch(cpu) : sched::Scheduler::DispatchGuard();
  }
  sched::Scheduler::LifecycleGuard LockLifecycleIf() {
    return locked_ ? scheduler_.LockLifecycle() : sched::Scheduler::LifecycleGuard();
  }

  void Push(Worker& w, Tick time, EventKind kind, std::int32_t a,
            std::uint64_t stamp = 0);
  // Routes a wakeup for `slot` at `time` to the worker owning shard `home`:
  // the local wheel when that is `w`, the mailbox pair otherwise.
  void PushWakeup(Worker& w, TaskSlot slot, Tick time, sched::CpuId home);

  void RunWorker(Worker& w, Tick start, Tick until, EpochBarrier& barrier);
  void RunLocal(Worker& w, Tick bound);
  void DrainMail(Worker& w, Tick epoch_start);
  void IdleKick(Worker& w);

  void DispatchEvent(Worker& w, const Event& ev);
  void HandleArrival(Worker& w, TaskSlot slot);
  void HandleWakeup(Worker& w, TaskSlot slot, sched::CpuId home);
  void HandleCpuTimer(Worker& w, sched::CpuId cpu_id, std::uint64_t stamp);
  void HandlePeriodic(Worker& w, std::size_t idx);

  // Makes a newly runnable thread run somewhere if it should: an idle owned
  // CPU first, then the scheduler's preemption suggestion.  `home` is the
  // thread's home shard — the dispatch-mutex key for SuggestPreemption under
  // the lock relaxation (scheduler.h).
  void PlaceRunnable(Worker& w, sched::ThreadId tid, sched::CpuId home);

  // Charges the thread running on `cpu_id` for the time used, frees the CPU, and
  // applies the behaviour's next action if its compute burst just completed.
  void StopRunning(Worker& w, sched::CpuId cpu_id);

  // Picks and starts the next thread on a free CPU (or leaves it idle).
  void Dispatch(Worker& w, sched::CpuId cpu_id);

  // Single-branch observer notifications (the common no-observer case pays
  // one predictable test, no std::function invocation machinery).  SchedEvent
  // and TraceEventKind share their first four enumerators, so the lifecycle
  // trace record is a straight cast.
  void NotifySchedEvent(Worker& w, SchedEvent event, const Task& task) {
    if (sched_event_hook_) {
      sched_event_hook_(event, task, w.now);
    }
    if (trace_) [[unlikely]] {
      if (locked_) {
        trace_->RecordLifecycleOnWorker(w.id, static_cast<obs::TraceEventKind>(event),
                                        w.now, task.tid());
      } else {
        trace_->RecordLifecycle(static_cast<obs::TraceEventKind>(event), w.now,
                                task.tid());
      }
    }
  }

  std::int64_t SumCounter(std::int64_t Worker::* member) const {
    std::int64_t total = 0;
    for (const auto& w : workers_) {
      total += (*w).*member;
    }
    return total;
  }

  sched::Scheduler& scheduler_;
  // Non-null when the scheduler is sharded: home shards are then meaningful
  // (ShardOf routes cross-worker wakeups; flat schedulers serialize on one
  // dispatch mutex and keep every wakeup local).
  sched::ShardedScheduler* sharded_ = nullptr;
  EngineConfig config_;
  obs::Trace* trace_;  // == config_.trace; nullptr when tracing is off
  // Resolved from config_.metrics at construction (registry lookups lock;
  // the event loop must not).  Null when metrics are off.
  obs::LogHistogram* quantum_hist_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;
  const bool locked_;  // workers > 1: bracket scheduler calls in its locks
  bool parallel_running_ = false;
  std::int64_t steals_at_ctor_ = 0;
  std::int64_t epochs_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> owner_of_cpu_;
  common::SlotArena<Task> tasks_;
  // ThreadId -> arena slot (-1 = unknown tid).  ThreadIds are dense small
  // integers in practice (sched/types.h), so a flat vector beats a hash map.
  std::vector<std::int32_t> tid_to_slot_;
  std::vector<Cpu> cpus_;
  std::vector<PeriodicHook> periodic_hooks_;
  std::uint64_t arrival_rr_ = 0;  // hintless-arrival round-robin cursor

  std::function<void(Engine&, Task&)> exit_hook_;
  std::function<void(SchedEvent, const Task&, Tick)> sched_event_hook_;
  std::function<void(Tick, Tick, sched::CpuId, sched::ThreadId)> run_interval_hook_;
};

}  // namespace sfs::sim

#endif  // SFS_SIM_ENGINE_H_
