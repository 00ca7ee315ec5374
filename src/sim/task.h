// Simulated tasks and their workload behaviours.
//
// A Task is one schedulable thread in the discrete-event simulator.  What the
// task *does* — compute, block on I/O, exit — is described by a Behavior state
// machine, queried by the engine whenever the previous action completes.  The
// workload models from the paper's evaluation (Inf, Interact, mpeg_play, gcc,
// disksim, dhrystone; Section 4.1) are Behavior implementations in src/workload.

#ifndef SFS_SIM_TASK_H_
#define SFS_SIM_TASK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/time.h"
#include "src/sched/types.h"

namespace sfs::sim {

// What a task does next, as reported by its Behavior.
struct Action {
  enum class Kind {
    kCompute,  // needs `duration` ticks of CPU before the next decision
    kBlock,    // sleeps for `duration` ticks (I/O, think time), then wakes
    kExit,     // terminates
  };

  Kind kind = Kind::kCompute;
  Tick duration = 0;

  static Action Compute(Tick d) { return {Kind::kCompute, d}; }
  static Action Block(Tick d) { return {Kind::kBlock, d}; }
  static Action Exit() { return {Kind::kExit, 0}; }
};

// Workload state machine.  The engine calls Next() when the task arrives and
// whenever the current action finishes; the notification hooks let behaviours
// measure latency (e.g. Interact's response time).
class Behavior {
 public:
  virtual ~Behavior();

  virtual Action Next(Tick now) = 0;

  // The task just became runnable after a block.
  virtual void OnWake(Tick now) { (void)now; }

  // The task was handed a processor / lost it (quantum expiry or preemption).
  virtual void OnDispatch(Tick now) { (void)now; }
  virtual void OnPreempt(Tick now) { (void)now; }
};

// One schedulable thread.
class Task {
 public:
  Task(sched::ThreadId tid, sched::Weight weight, std::unique_ptr<Behavior> behavior,
       std::string label = {});

  sched::ThreadId tid() const { return tid_; }
  sched::Weight weight() const { return weight_; }
  const std::string& label() const;
  Behavior& behavior() { return *behavior_; }

  // Cumulative CPU service received (kept here so it survives task exit).
  Tick service() const { return service_; }

  enum class State { kNew, kRunnable, kRunning, kBlocked, kExited };
  State state() const { return state_; }

  // Processor that last ran this task (engine view); kInvalidCpu before the
  // first dispatch.  Used for migration accounting.
  sched::CpuId last_cpu() const { return last_cpu_; }

  // Working-set size in KiB for the engine's cache-restore model (see
  // EngineConfig::cache_restore_per_kb).  Set before handing the task to the
  // engine.
  int working_set_kb() const { return working_set_kb_; }
  void set_working_set_kb(int kb) { working_set_kb_ = kb; }

  // Home-CPU placement hint, forwarded to Scheduler::AddThread at arrival.
  // Partition-aware policies admit the thread to this shard instead of their
  // load-balanced choice, making placement a pure function of the workload.
  // kInvalidCpu (default) keeps the scheduler's own placement.  Set before
  // handing the task to the engine.
  sched::CpuId home_cpu() const { return home_cpu_; }
  void set_home_cpu(sched::CpuId cpu) { home_cpu_ = cpu; }

 private:
  friend class Engine;

  // Hot fields first: the engine's per-event path (StopRunning / Dispatch /
  // the Handle* switch) touches these and nothing below behavior_, so they
  // share the task's first cache line in the slot arena.
  State state_ = State::kNew;
  // Dense arena slot the engine filed this task under (set by AddTaskAt);
  // events carry this id so hot-path lookup is a vector index, not a map probe.
  std::uint32_t slot_ = 0;
  sched::ThreadId tid_;
  sched::CpuId last_cpu_ = sched::kInvalidCpu;
  // CPU ticks left in the current compute action (kTickInfinity for Inf-style).
  Tick remaining_burst_ = 0;
  Tick service_ = 0;
  sched::Weight weight_;
  int working_set_kb_ = 0;
  // Occupies what was the pre-behavior_ padding hole, so the one-line
  // static_assert below still holds.
  sched::CpuId home_cpu_ = sched::kInvalidCpu;
  std::unique_ptr<Behavior> behavior_;
  // Cold: read once at registration (trace thread name) and by reporting
  // paths; boxed so an unlabelled task pays a pointer, not an inline
  // std::string, and the whole Task fits one cache line.  null <=> empty.
  std::unique_ptr<std::string> label_;
};

// The arena-resident task is the densest engine structure after the event
// nodes; keep it within a single 64-byte cache line.
static_assert(sizeof(Task) <= 64, "Task outgrew one cache line");

}  // namespace sfs::sim

#endif  // SFS_SIM_TASK_H_
