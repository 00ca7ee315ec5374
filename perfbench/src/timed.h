// Traced wrappers around the program's layers.
//
// TimedSfs overrides Sfs's policy hooks and SuggestPreemption, TimedSharded
// overrides ShardedScheduler::PickNextEntity, and TimedBehavior decorates a
// sim::Behavior.  Each forwards to the wrapped implementation inside a Span,
// so the schedule is the production one and only the timing is added.  They
// are used only by traced runs; timed runs use the production classes.

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <memory>
#include <vector>

#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sim/task.h"
#include "tracer.h"

namespace perfbench {

class TimedSfs final : public sfs::sched::Sfs {
 public:
  using Sfs::Sfs;

  sfs::sched::CpuId SuggestPreemption(sfs::sched::ThreadId woken,
                                      const std::vector<sfs::Tick>& elapsed) override {
    Span span(Kind::kSchedPreempt);
    return Sfs::SuggestPreemption(woken, elapsed);
  }

 protected:
  void OnAdmit(sfs::sched::Entity& e) override {
    Span span(Kind::kSchedAdmit);
    Sfs::OnAdmit(e);
  }
  void OnRemove(sfs::sched::Entity& e) override {
    Span span(Kind::kSchedRemove);
    Sfs::OnRemove(e);
  }
  void OnBlocked(sfs::sched::Entity& e) override {
    Span span(Kind::kSchedBlock);
    Sfs::OnBlocked(e);
  }
  void OnWoken(sfs::sched::Entity& e) override {
    Span span(Kind::kSchedWake);
    Sfs::OnWoken(e);
  }
  sfs::sched::Entity* PickNextEntity(sfs::sched::CpuId cpu) override {
    Span span(Kind::kSchedPick);
    return Sfs::PickNextEntity(cpu);
  }
  void OnCharge(sfs::sched::Entity& e, sfs::Tick ran_for) override {
    Span span(Kind::kSchedCharge);
    Sfs::OnCharge(e, ran_for);
  }
};

// Sharded SFS whose shards are TimedSfs.  The self time of a
// sched.sharded.pick span is the host's steal and rebalance work: its
// duration minus the inner shard's sched.pick.
class TimedSharded final : public sfs::sched::ShardedScheduler {
 public:
  explicit TimedSharded(const sfs::sched::SchedConfig& config)
      : ShardedScheduler(config, [](const sfs::sched::SchedConfig& shard_config) {
          return std::make_unique<TimedSfs>(shard_config);
        }) {}

 protected:
  sfs::sched::Entity* PickNextEntity(sfs::sched::CpuId cpu) override {
    Span span(Kind::kShardedPick);
    return ShardedScheduler::PickNextEntity(cpu);
  }
};

class TimedBehavior final : public sfs::sim::Behavior {
 public:
  explicit TimedBehavior(std::unique_ptr<sfs::sim::Behavior> inner) : inner_(std::move(inner)) {}

  sfs::sim::Action Next(sfs::Tick now) override {
    Span span(Kind::kWorkloadNext);
    return inner_->Next(now);
  }
  void OnWake(sfs::Tick now) override {
    Span span(Kind::kWorkloadWake);
    inner_->OnWake(now);
  }
  void OnDispatch(sfs::Tick now) override { inner_->OnDispatch(now); }
  void OnPreempt(sfs::Tick now) override { inner_->OnPreempt(now); }

 private:
  std::unique_ptr<sfs::sim::Behavior> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_
